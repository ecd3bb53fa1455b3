module vgprs/bench

go 1.22

require vgprs v0.0.0

replace vgprs => ../
