package alltoall

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestDesignNamesExchangeEntries holds DESIGN.md §2.5 to the code: the
// section names exactly the exported all-to-all entry points — every
// exported function of this package and every exported function of comm
// whose name says Alltoall or Exchange — so a second exchange shape cannot
// come back without the section saying so.
func TestDesignNamesExchangeEntries(t *testing.T) {
	isEntry := func(pkg, name string) bool {
		return pkg == "alltoall" || strings.Contains(name, "Alltoall") || strings.Contains(name, "Exchange")
	}
	funcs := map[string]bool{} // "pkg.Name" of every exported top-level function
	var code []string
	for _, dir := range []string{".", "../comm"} {
		pkgs, err := parser.ParseDir(token.NewFileSet(), dir, func(fi os.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, 0)
		if err != nil {
			t.Fatal(err)
		}
		for name, pkg := range pkgs {
			for _, f := range pkg.Files {
				for _, d := range f.Decls {
					if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil && fd.Name.IsExported() {
						funcs[name+"."+fd.Name.Name] = true
						if isEntry(name, fd.Name.Name) {
							code = append(code, name+"."+fd.Name.Name)
						}
					}
				}
			}
		}
	}
	raw, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	sec := regexp.MustCompile(`(?s)### 2\.5 .*?\n## 3\.`).Find(raw)
	if sec == nil {
		t.Fatal("DESIGN.md has no §2.5")
	}
	var doc []string
	for _, m := range regexp.MustCompile("`(comm|alltoall)\\.([A-Z]\\w*)`").FindAllSubmatch(sec, -1) {
		pkg, name := string(m[1]), string(m[2])
		if q := pkg + "." + name; funcs[q] || (pkg == "comm" && isEntry(pkg, name)) {
			doc = append(doc, q)
		}
	}
	slices.Sort(code)
	slices.Sort(doc)
	if doc = slices.Compact(doc); !slices.Equal(code, doc) {
		t.Errorf("DESIGN.md §2.5 names the entry points %v, the code exports %v", doc, code)
	}
}

// TestDesignQuotesGridThreshold compares the bytes-per-message rule DESIGN.md
// §4 quotes for Auto with DefaultGridThreshold.
func TestDesignQuotesGridThreshold(t *testing.T) {
	raw, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile("(\\d+)-bytes-per-message\\s+rule\\s+\\(`alltoall\\.DefaultGridThreshold`\\)").FindSubmatch(raw)
	if m == nil {
		t.Fatal("DESIGN.md no longer quotes alltoall.DefaultGridThreshold")
	}
	if got, _ := strconv.Atoi(string(m[1])); got != DefaultGridThreshold {
		t.Errorf("DESIGN.md says Auto switches at %d bytes per message, the code %d", got, DefaultGridThreshold)
	}
}
