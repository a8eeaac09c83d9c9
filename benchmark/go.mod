module tez/benchmark

go 1.22

require tez v0.0.0

replace tez => ../
