module bufsim/benchmark

go 1.22

require bufsim v0.0.0

replace bufsim => ../
