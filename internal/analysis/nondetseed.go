package analysis

import (
	"go/ast"
	"go/types"
)

// NonDetSeed flags wall-clock reads and global-source randomness inside
// the simulation packages. A coupled run must be a pure function of its
// configuration: the chaos harness replays failure scenarios by seed,
// the restart layer checksums state, and the width-1-vs-N equivalence
// tests diff entire trajectories — all of which break the moment
// simulation code consults time.Now or the process-global math/rand
// source. Timing belongs to the measurement layers (benchmark/,
// internal/trace, cmd/*), which are out of scope; code inside the loop
// takes a clock or a seeded *rand.Rand as an explicit dependency it can
// be handed a deterministic implementation of.
//
// Methods on a *rand.Rand instance are not flagged — constructing one
// from a configured seed is exactly the sanctioned pattern.
var NonDetSeed = &Analyzer{
	Name: "nondetseed",
	Doc:  "no time.Now or global math/rand in simulation packages; inject clocks and seeded rngs",
	Run:  runNonDetSeed,
}

// globalRandFuncs are the math/rand package-level functions that draw
// from the shared, unseeded-by-default source. New/NewSource/NewZipf
// construct local generators and are the sanctioned replacement.
var globalRandFuncs = map[string]bool{
	"Float64": true, "Float32": true, "ExpFloat64": true, "NormFloat64": true,
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Perm": true, "Shuffle": true, "Seed": true,
}

func runNonDetSeed(pass *Pass) error {
	if !simulationPackage(pass) {
		return nil
	}
	for _, file := range pass.Files {
		if isTestFile(pass, file) {
			continue
		}
		// Any use counts, not just calls: storing time.Now as a function
		// value and invoking it later is the same wall-clock read.
		ast.Inspect(file, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			fn, ok := pass.TypesInfo.Uses[id].(*types.Func)
			if !ok || fn.Pkg() == nil || fn.Type().(*types.Signature).Recv() != nil {
				return true
			}
			switch fn.Pkg().Path() {
			case "time":
				if fn.Name() == "Now" || fn.Name() == "Since" {
					pass.Reportf(id.Pos(),
						"time.%s in a simulation package makes runs irreproducible; take a clock (func() time.Time) as an explicit dependency", fn.Name())
				}
			case "math/rand":
				if globalRandFuncs[fn.Name()] {
					pass.Reportf(id.Pos(),
						"rand.%s draws from the process-global source; construct a seeded *rand.Rand from the run configuration instead", fn.Name())
				}
			}
			return true
		})
	}
	return nil
}
