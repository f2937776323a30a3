package sim

// RegisterDeltaOracle exposes the map-based register delta to the external
// differential tests, which need packages (core, fault) that import sim.
var RegisterDeltaOracle = registerDeltaOracle
