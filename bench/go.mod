module perdnn/bench

go 1.22

require perdnn v0.0.0

replace perdnn => ../
