module ocelot/bench

go 1.22

require ocelot v0.0.0

replace ocelot => ../
