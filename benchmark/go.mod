module aspectpar/benchmark

go 1.23

require aspectpar v0.0.0

replace aspectpar => ../
