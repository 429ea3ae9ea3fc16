package restart

// CheckAgainstOracle is checkAgainstOracle for the external test package,
// which may import the coupler (it imports this package) to put the real
// model state through the comparison.
var CheckAgainstOracle = checkAgainstOracle
