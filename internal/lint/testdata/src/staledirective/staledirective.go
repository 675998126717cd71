// Package staledirective is the fixture for judging a multi-analyzer
// //lint:ignore name by name: the directive below names two analyzers,
// and only maporder has a finding there to suppress.
package staledirective

import "fmt"

func dump(m map[string]int) {
	for k, v := range m {
		//lint:ignore maporder,simdeterminism fixture: the maporder half is live, the simdeterminism half suppresses nothing
		fmt.Println(k, v)
	}
}
