module hyperprov/bench/e2e

go 1.22

require hyperprov v0.0.0

replace hyperprov => ../..
