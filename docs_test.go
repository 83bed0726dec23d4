package slmem_test

// Documentation gates, run by the CI docs job:
//
//   - TestExportedSymbolsDocumented enforces the godoc contract on the
//     public API surface and the service-runtime packages: every exported
//     top-level declaration (and method on an exported type) carries a doc
//     comment.
//   - TestMarkdownLinks checks that every relative link in the repo's
//     markdown files points at a file or directory that exists.
//   - TestMarkdownLinksFromGoComments checks that a markdown file named in
//     a comment of a non-test Go file exists.
//   - TestClaimIndexNamesExistingTests checks that every test the claim
//     index of docs/ARCHITECTURE.md names exists in the package it names.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// docCheckedDirs are the packages whose exported symbols must all carry doc
// comments: the public API (root) and the service runtime layers.
var docCheckedDirs = []string{".", "internal/registry", "internal/server"}

func TestExportedSymbolsDocumented(t *testing.T) {
	for _, dir := range docCheckedDirs {
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, parser.ParseComments)
		if err != nil {
			t.Fatalf("%s: %v", dir, err)
		}
		for _, pkg := range pkgs {
			for path, file := range pkg.Files {
				checkFileDocs(t, fset, path, file)
			}
		}
	}
}

func checkFileDocs(t *testing.T, fset *token.FileSet, path string, file *ast.File) {
	t.Helper()
	undocumented := func(pos token.Pos, what string) {
		p := fset.Position(pos)
		t.Errorf("%s:%d: exported %s has no doc comment", path, p.Line, what)
	}
	for _, decl := range file.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() {
				continue
			}
			// Methods count when exported, whatever their receiver; the
			// receiver type's export status only affects godoc rendering,
			// not the contract that the symbol is explained.
			if d.Doc == nil {
				kind := "function " + d.Name.Name
				if d.Recv != nil {
					kind = "method " + d.Name.Name
				}
				undocumented(d.Pos(), kind)
			}
		case *ast.GenDecl:
			// A doc comment on the grouped declaration covers every spec in
			// it (the "// Supported object kinds." const-block idiom);
			// otherwise each exported spec needs its own.
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() && d.Doc == nil && s.Doc == nil && s.Comment == nil {
						undocumented(s.Pos(), "type "+s.Name.Name)
					}
				case *ast.ValueSpec:
					for _, name := range s.Names {
						if name.IsExported() && d.Doc == nil && s.Doc == nil && s.Comment == nil {
							undocumented(s.Pos(), "const/var "+name.Name)
						}
					}
				}
			}
		}
	}
}

// mdLink matches markdown link targets: [text](target).
var mdLink = regexp.MustCompile(`\]\(([^)\s]+)\)`)

func TestMarkdownLinks(t *testing.T) {
	var mdFiles []string
	root, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range root {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".md") {
			mdFiles = append(mdFiles, e.Name())
		}
	}
	docs, err := filepath.Glob("docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	mdFiles = append(mdFiles, docs...)
	if len(mdFiles) < 3 {
		t.Fatalf("found only %d markdown files; link check is miswired", len(mdFiles))
	}

	for _, md := range mdFiles {
		data, err := os.ReadFile(md)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range mdLink.FindAllStringSubmatch(string(data), -1) {
			target := m[1]
			if strings.HasPrefix(target, "http://") || strings.HasPrefix(target, "https://") ||
				strings.HasPrefix(target, "mailto:") || strings.HasPrefix(target, "#") {
				continue
			}
			target, _, _ = strings.Cut(target, "#")
			resolved := filepath.Join(filepath.Dir(md), target)
			if _, err := os.Stat(resolved); err != nil {
				t.Errorf("%s: broken relative link %q (%v)", md, m[1], err)
			}
		}
	}
}

// mdName matches a markdown file name, with or without a directory.
var mdName = regexp.MustCompile(`[\w./-]*\w\.md\b`)

// TestMarkdownLinksFromGoComments walks every non-test Go file of the
// checkout (the benchmark module included) and requires each markdown file a
// comment names to exist, relative to the repository root or to the file's
// own directory.
func TestMarkdownLinksFromGoComments(t *testing.T) {
	checked := 0
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir // .git, .bench_build
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		fset := token.NewFileSet()
		file, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		for _, group := range file.Comments {
			for _, c := range group.List {
				for _, name := range mdName.FindAllString(c.Text, -1) {
					checked++
					_, atRoot := os.Stat(name)
					_, beside := os.Stat(filepath.Join(filepath.Dir(path), name))
					if atRoot != nil && beside != nil {
						t.Errorf("%s:%d: comment names %s, which does not exist",
							path, fset.Position(c.Pos()).Line, name)
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if checked == 0 {
		t.Fatal("no markdown file named in any Go comment; the check is miswired")
	}
}

// claimName matches a package-qualified test or benchmark in backticks, the
// form the claim index of docs/ARCHITECTURE.md uses: `aba.TestObservation4`.
var claimName = regexp.MustCompile("`([a-z]+)\\.((?:Test|Benchmark)[A-Za-z0-9_]+)`")

// claimRow matches a row E1..E9 of the claim index.
var claimRow = regexp.MustCompile(`^\s*\| E[1-9] \|`)

func TestClaimIndexNamesExistingTests(t *testing.T) {
	data, err := os.ReadFile("docs/ARCHITECTURE.md")
	if err != nil {
		t.Fatal(err)
	}
	rows := 0
	for _, line := range strings.Split(string(data), "\n") {
		names := claimName.FindAllStringSubmatch(line, -1)
		if claimRow.MatchString(line) {
			rows++
			if len(names) == 0 {
				t.Errorf("claim index row names no test: %s", line)
			}
		}
		for _, m := range names {
			dir := "internal/" + m[1]
			if m[1] == "slmem" {
				dir = "."
			}
			files, _ := filepath.Glob(filepath.Join(dir, "*_test.go"))
			found := false
			for _, f := range files {
				src, err := os.ReadFile(f)
				if err != nil {
					t.Fatal(err)
				}
				if strings.Contains(string(src), "\nfunc "+m[2]+"(") {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("docs/ARCHITECTURE.md names %s.%s, but no _test.go file in %s declares it", m[1], m[2], dir)
			}
		}
	}
	if rows != 9 {
		t.Errorf("found %d claim index rows E1-E9, want 9; the check is miswired", rows)
	}
}
