module ownsim/bench

go 1.22

require ownsim v0.0.0

replace ownsim => ../
