package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strconv"
	"strings"
	"testing"

	"slmem/internal/harness"
)

func TestObs4Scenario(t *testing.T) {
	// Succeeds precisely when the Observation 4 violation is reproduced.
	if err := run([]string{"-scenario", "obs4"}); err != nil {
		t.Fatal(err)
	}
}

func TestExploreScenarioAlg1(t *testing.T) {
	if err := run([]string{"-scenario", "explore", "-impl", "alg1", "-writes", "1", "-reads", "1"}); err != nil {
		t.Fatal(err)
	}
}

func TestExploreScenarioAlg2(t *testing.T) {
	if err := run([]string{"-scenario", "explore", "-impl", "alg2", "-writes", "1", "-reads", "1"}); err != nil {
		t.Fatal(err)
	}
}

func TestRandomScenario(t *testing.T) {
	if err := run([]string{"-scenario", "random", "-impl", "alg2", "-trees", "5"}); err != nil {
		t.Fatal(err)
	}
}

func TestUnknownScenario(t *testing.T) {
	if err := run([]string{"-scenario", "nope"}); err == nil {
		t.Fatal("unknown scenario accepted")
	}
}

func TestExploreNodeBudgetError(t *testing.T) {
	if err := run([]string{"-scenario", "explore", "-maxnodes", "3"}); err == nil {
		t.Fatal("tiny node budget should error")
	}
}

func TestHuntScenarioAlg1(t *testing.T) {
	if err := run([]string{"-scenario", "hunt", "-impl", "alg1"}); err != nil {
		t.Fatal(err)
	}
}

func TestHuntScenarioAlg2(t *testing.T) {
	if err := run([]string{"-scenario", "hunt", "-impl", "alg2"}); err != nil {
		t.Fatal(err)
	}
}

// TestVerdictErr: only a violation by Algorithm 2 fails the command;
// Algorithm 1 violating prefix preservation is Observation 4.
func TestVerdictErr(t *testing.T) {
	for _, tc := range []struct {
		impl     harness.ABAImpl
		violated bool
		wantErr  bool
	}{
		{harness.ABALinearizable, false, false},
		{harness.ABALinearizable, true, false},
		{harness.ABAStrong, false, false},
		{harness.ABAStrong, true, true},
	} {
		if err := verdictErr(tc.impl, tc.violated); (err != nil) != tc.wantErr {
			t.Errorf("verdictErr(%s, %t) = %v, want error: %t", tc.impl, tc.violated, err, tc.wantErr)
		}
	}
}

// TestScenarioUsageNamesEveryCase reads main.go: every scenario the switch
// in run handles must appear in the -scenario flag's usage string.
func TestScenarioUsageNamesEveryCase(t *testing.T) {
	file, err := parser.ParseFile(token.NewFileSet(), "main.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	str := func(e ast.Expr) string {
		if lit, ok := e.(*ast.BasicLit); ok && lit.Kind == token.STRING {
			s, _ := strconv.Unquote(lit.Value)
			return s
		}
		return ""
	}
	var usage string
	var cases []string
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr: // fs.String("scenario", default, usage)
			if len(n.Args) == 3 && str(n.Args[0]) == "scenario" {
				usage = str(n.Args[2])
			}
		case *ast.SwitchStmt:
			if tag, ok := n.Tag.(*ast.StarExpr); ok {
				if id, ok := tag.X.(*ast.Ident); ok && id.Name == "scenario" {
					for _, clause := range n.Body.List {
						for _, e := range clause.(*ast.CaseClause).List {
							cases = append(cases, str(e))
						}
					}
				}
			}
		}
		return true
	})
	if len(cases) < 4 {
		t.Fatalf("found scenarios %q in main.go's switch; the test is miswired", cases)
	}
	for _, c := range cases {
		if !strings.Contains(usage, c) {
			t.Errorf("-scenario usage %q omits %q", usage, c)
		}
	}
}
