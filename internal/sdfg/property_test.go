package sdfg

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// TestRandomExprPrintParseRoundTrip: String() output reparses to an
// identical tree (the hoist machinery relies on this).
func TestRandomExprPrintParseRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := randomExpr(rng, 4)
		printed := e.String()
		re, err := parseExpr(printed)
		if err != nil {
			return false
		}
		return re.String() == printed
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestStripDirectivesIdempotent: stripping twice equals stripping once.
func TestStripDirectivesIdempotent(t *testing.T) {
	once := StripDirectives(EkinhDirectiveSource)
	twice := StripDirectives(once)
	if once != twice {
		t.Error("StripDirectives not idempotent")
	}
}
