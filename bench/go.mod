module rshuffle/bench

go 1.22

require rshuffle v0.0.0

replace rshuffle => ../
