module blu/bench

go 1.22

require blu v0.0.0

replace blu => ../
