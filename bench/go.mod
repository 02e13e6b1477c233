module aspen/bench

go 1.24

require aspen v0.0.0

replace aspen => ../
