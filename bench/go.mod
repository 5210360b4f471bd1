module github.com/pla-go/pla/bench

go 1.24

require github.com/pla-go/pla v0.0.0

replace github.com/pla-go/pla => ../
