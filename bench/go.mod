module cordial/bench

go 1.22

require cordial v0.0.0

replace cordial => ../
