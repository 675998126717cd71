package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// DigestField is the static mirror of TestDigestCoversEveryField: every
// exported field of an experiment config struct must be visible to the
// runcache digest, or belong to a digest-ignored type.
//
// The digest walks configs by reflection and skips two things on purpose:
// struct fields whose type declares the DigestIgnore marker method
// (experiment.RunEnv — observers and execution policy), and struct
// fields whose own kind is func, chan or unsafe.Pointer. The second skip
// is *silent* — a semantic field of such a type would not move the cache
// key, so two different runs would share a cached result — and the first
// is the only sanctioned home for a value like that. Values of those
// kinds reached any deeper (a slice of funcs, a pointer to a chan) panic
// at digest time, and so do map keys that are not scalars. This analyzer
// reports all three hazards at compile time, anywhere outside a
// digest-ignored type.
//
// The rule is structural, not nominal: a field is exempt because of what
// its type declares, never because of what it is called. The analyzer
// activates on any package that declares a digest-ignored type or holds
// one in a struct, and checks every exported struct type in it named
// *Config.
var DigestField = &Analyzer{
	Name: "digestfield",
	Doc: "every exported field of a *Config struct must be digestable by runcache.Key or belong to a " +
		"DigestIgnore-marked type; silently-skipped kinds (func/chan/unsafe) and panicking shapes are errors",
	AppliesTo: func(pkgPath string) bool {
		// Cheap pre-filter; the real trigger is a digest-ignored type.
		return strings.HasPrefix(pkgPath, "bufsim/")
	},
	Run: runDigestField,
}

func runDigestField(pass *Pass) error {
	type config struct {
		ts *ast.TypeSpec
		st *types.Struct
	}
	var configs []config
	digests := false // the package declares or holds a digest-ignored type
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				obj, ok := pass.Info.Defs[ts.Name]
				if !ok {
					continue
				}
				st, ok := obj.Type().Underlying().(*types.Struct)
				if !ok {
					continue
				}
				digests = digests || markedIgnored(obj.Type())
				for i := 0; i < st.NumFields(); i++ {
					digests = digests || markedIgnored(st.Field(i).Type())
				}
				if ts.Name.IsExported() && strings.HasSuffix(ts.Name.Name, "Config") {
					configs = append(configs, config{ts, st})
				}
			}
		}
	}
	if !digests {
		return nil // package does not digest configs
	}
	for _, c := range configs {
		checkConfigStruct(pass, c.ts, c.st)
	}
	return nil
}

// markedIgnored mirrors runcache's rule: t is a struct type that declares
// a value-receiver DigestIgnore method itself. A struct that merely
// embeds such a type has the method promoted into its method set (a
// selection path longer than one step) and is digested as usual.
func markedIgnored(t types.Type) bool {
	if _, ok := t.Underlying().(*types.Struct); !ok {
		return false
	}
	sel := types.NewMethodSet(t).Lookup(nil, "DigestIgnore")
	return sel != nil && len(sel.Index()) == 1
}

// checkConfigStruct verifies every exported field of one config struct,
// reporting at the field's declaration so the fix is one click away.
func checkConfigStruct(pass *Pass, ts *ast.TypeSpec, st *types.Struct) {
	stExpr, ok := ts.Type.(*ast.StructType)
	if !ok {
		return
	}
	fieldPos := make(map[string]token.Pos)
	for _, f := range stExpr.Fields.List {
		for _, name := range f.Names {
			fieldPos[name.Name] = name.Pos()
		}
		if len(f.Names) == 0 { // embedded field
			if id := embeddedFieldName(f.Type); id != "" {
				fieldPos[id] = f.Type.Pos()
			}
		}
	}
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if !f.Exported() || markedIgnored(f.Type()) {
			continue
		}
		pos, ok := fieldPos[f.Name()]
		if !ok {
			pos = ts.Pos()
		}
		path := ts.Name.Name + "." + f.Name()
		checkDigestable(pass, pos, path, f.Type(), true, make(map[types.Type]bool))
	}
}

func embeddedFieldName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.StarExpr:
		return embeddedFieldName(e.X)
	case *ast.SelectorExpr:
		return e.Sel.Name
	}
	return ""
}

// checkDigestable mirrors runcache.encodeValue's type walk. structField
// records whether t is the declared type of a struct field: at that
// level func/chan/unsafe kinds are silently skipped by the digest; any
// deeper they panic.
func checkDigestable(pass *Pass, pos token.Pos, path string, t types.Type, structField bool, visited map[types.Type]bool) {
	if visited[t] {
		return
	}
	visited[t] = true
	defer delete(visited, t)

	switch u := t.Underlying().(type) {
	case *types.Basic:
		if u.Kind() == types.UnsafePointer {
			reportUndigestable(pass, pos, path, "unsafe.Pointer", structField)
		}
	case *types.Signature:
		reportUndigestable(pass, pos, path, "func", structField)
	case *types.Chan:
		reportUndigestable(pass, pos, path, "chan", structField)
	case *types.Interface:
		// Digested via the concrete type at runtime; nothing to check
		// statically.
	case *types.Pointer:
		checkDigestable(pass, pos, path, u.Elem(), false, visited)
	case *types.Slice:
		checkDigestable(pass, pos, path+"[]", u.Elem(), false, visited)
	case *types.Array:
		checkDigestable(pass, pos, path+"[]", u.Elem(), false, visited)
	case *types.Map:
		if !scalarMapKey(u.Key()) {
			pass.Reportf(pos, "%s has map key type %s, which runcache.Key cannot canonicalize (it panics at digest time); key maps by scalars", path, u.Key())
		}
		checkDigestable(pass, pos, path+"[...]", u.Elem(), false, visited)
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			f := u.Field(i)
			if !f.Exported() || markedIgnored(f.Type()) {
				continue
			}
			checkDigestable(pass, pos, path+"."+f.Name(), f.Type(), true, visited)
		}
	}
}

func reportUndigestable(pass *Pass, pos token.Pos, path, kind string, structField bool) {
	if structField {
		pass.Reportf(pos, "%s (kind %s) is silently skipped by the runcache digest, so it would not move the cache key; move it into a DigestIgnore-marked type if it is an observer, or make it digestable", path, kind)
	} else {
		pass.Reportf(pos, "%s reaches a %s value, which runcache.Key panics on at digest time; restructure the field or move it into a DigestIgnore-marked type", path, kind)
	}
}

// scalarMapKey mirrors runcache.scalarString's accepted kinds.
func scalarMapKey(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	if !ok {
		return false
	}
	switch {
	case b.Info()&(types.IsBoolean|types.IsNumeric|types.IsString) != 0:
		return b.Kind() != types.UnsafePointer
	default:
		return false
	}
}
