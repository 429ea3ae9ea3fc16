package fault

import (
	"fmt"
	"math"
	"reflect"
	"testing"
)

// The fuzz targets hold the two command-line grammars of this package (the
// -chaos and -crash-at specs) to one property: whatever the input, no
// panic; an accepted spec re-encodes through String to text that parses
// back to an equal value; and an accepted plan only holds what the
// injector can apply — a finite slowdown factor above 1, a stall of no
// negative length. Seed corpora are in testdata/fuzz; plain `go test` runs
// them, `verify.sh full` and the tier-2 CI job fuzz for 10 s each.

func FuzzParseChaosSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, spec string) {
		seed, plan, err := ParseChaosSpec(spec)
		if err != nil {
			return
		}
		for _, ft := range plan {
			if ft.Kind == Slowdown && (!(ft.Factor > 1) || math.IsInf(ft.Factor, 1)) {
				t.Errorf("%q accepted slowdown factor %v", spec, ft.Factor)
			}
			if ft.StallFor < 0 {
				t.Errorf("%q accepted stall %v", spec, ft.StallFor)
			}
		}
		again := fmt.Sprintf("seed=%d", seed)
		if len(plan) > 0 {
			again += ",plan=" + plan.String()
		}
		seed2, plan2, err := ParseChaosSpec(again)
		if err != nil {
			t.Fatalf("%q re-encodes to %q, which is rejected: %v", spec, again, err)
		}
		if seed2 != seed || len(plan2) != len(plan) || (len(plan) > 0 && !reflect.DeepEqual(plan2, plan)) {
			t.Fatalf("%q re-encodes to %q, which parses to seed %d plan %v, not seed %d plan %v",
				spec, again, seed2, plan2, seed, plan)
		}
	})
}

func FuzzParseKillSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, spec string) {
		ks, err := ParseKillSpec(spec)
		if err != nil {
			return
		}
		again, err := ParseKillSpec(ks.String())
		if err != nil {
			t.Fatalf("%q re-encodes to %q, which is rejected: %v", spec, ks.String(), err)
		}
		if again != ks {
			t.Fatalf("%q re-encodes to %q, which parses to %+v, not %+v", spec, ks.String(), again, ks)
		}
	})
}
