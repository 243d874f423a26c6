module mdcc/benchmark

go 1.21

require mdcc v0.0.0

replace mdcc => ../
