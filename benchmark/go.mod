module icoearth/benchmark

go 1.24

require icoearth v0.0.0

replace icoearth => ../
