package main

import (
	"strings"
	"testing"

	"lpp/internal/torture"
)

// TestParityErrorNamesDivergedFamilies: a report with a diverged HTTP
// path must fail the run and name every diverged family, and only those.
func TestParityErrorNamesDivergedFamilies(t *testing.T) {
	families := []*torture.Report{
		{Family: "interleaved", HTTPParity: true},
		{Family: "drift", HTTPParity: false},
		{Family: "adaptive", HTTPParity: false},
	}
	err := parityError(families)
	if err == nil {
		t.Fatal("diverged report passed the parity check")
	}
	msg := err.Error()
	if !strings.Contains(msg, "drift") || !strings.Contains(msg, "adaptive") {
		t.Errorf("error %q does not name both diverged families", msg)
	}
	if strings.Contains(msg, "interleaved") {
		t.Errorf("error %q names a family that kept parity", msg)
	}

	families[1].HTTPParity, families[2].HTTPParity = true, true
	if err := parityError(families); err != nil {
		t.Errorf("all-parity report failed the check: %v", err)
	}
}
