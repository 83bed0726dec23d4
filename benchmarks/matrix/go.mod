module slmem/benchmarks/matrix

go 1.24

require slmem v0.0.0

replace slmem => ../..
