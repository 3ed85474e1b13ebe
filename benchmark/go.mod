module qppt/benchmark

go 1.22

require qppt v0.0.0

replace qppt => ../
