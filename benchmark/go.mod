module i2mapreduce/benchmark

go 1.23

require i2mapreduce v0.0.0

replace i2mapreduce => ../
