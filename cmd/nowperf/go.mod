module nowover/cmd/nowperf

go 1.22

require nowover v0.0.0

replace nowover => ../..
