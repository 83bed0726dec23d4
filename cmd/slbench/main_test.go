package main

import (
	"strings"
	"testing"
)

func TestRunSelected(t *testing.T) {
	// E4 and E5 are the fastest experiments; they cover both flag paths.
	if err := run([]string{"-e", "E4,E5"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunMarkdown(t *testing.T) {
	if err := run([]string{"-e", "E4", "-md"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	err := run([]string{"-e", "E99"})
	if err == nil {
		t.Fatal("unknown experiment accepted")
	}
	if !strings.Contains(err.Error(), "E7") {
		t.Errorf("error should mention where E7 lives: %v", err)
	}
}

func TestRunBadFlag(t *testing.T) {
	// slbench prints experiment tables only: there is no -json.
	for _, flag := range []string{"-definitely-not-a-flag", "-json"} {
		if err := run([]string{flag}); err == nil {
			t.Fatalf("bad flag %s accepted", flag)
		}
	}
}

func TestSelectionCaseInsensitive(t *testing.T) {
	if err := run([]string{"-e", "e4"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunE9(t *testing.T) {
	if err := run([]string{"-e", "E9"}); err != nil {
		t.Fatal(err)
	}
}
