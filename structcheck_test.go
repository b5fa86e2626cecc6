package xqview

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// structCheckFiles are the plumbing files whose struct fields must all be
// read somewhere: a round field nothing references is a phase slot no phase
// fills or reports; a shared-DAG, MVCC or draft field, a broken fan-out,
// publish, drain or install path; a script-evaluation one, a dead memo; a
// view, arena or copy-on-write tracker one, round memory nobody resets; a
// view-set one, compiled once and read by no round; a state-cache one,
// staging no commit reads; a store-trie one, a slot no lookup or freeze
// reads.
var structCheckFiles = []string{
	"internal/core/round.go",
	"internal/xat/shared.go",
	"internal/core/txn.go",
	"internal/core/view.go",
	"internal/core/snapshot.go",
	"internal/xmldoc/snapshot.go",
	"internal/xmldoc/draft.go",
	"internal/xmldoc/trie.go",
	"internal/update/script.go",
	"internal/xat/alloc.go",
	"internal/xat/statecache.go",
	"internal/deepunion/txn.go",
}

// TestStructFieldsReferenced is the unused-field lint: every field declared
// by a top-level struct in structCheckFiles must be named by a selector
// (x.Field) or a keyed literal (Field: v) somewhere in the module, tests
// included. A name counts wherever it appears, whatever type it selects, so
// the lint can miss a dead field that shares its name but never flags a
// live one.
func TestStructFieldsReferenced(t *testing.T) {
	fset := token.NewFileSet()
	used := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				used[n.Sel.Name] = true
			case *ast.KeyValueExpr:
				if key, ok := n.Key.(*ast.Ident); ok {
					used[key.Name] = true
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, file := range structCheckFiles {
		f, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		fields := 0
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts := spec.(*ast.TypeSpec)
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				for _, field := range st.Fields.List {
					for _, name := range field.Names { // embedded fields have none
						fields++
						if !used[name.Name] {
							t.Errorf("%s: %s.%s is never used", file, ts.Name.Name, name.Name)
						}
					}
				}
			}
		}
		if fields == 0 {
			t.Errorf("%s declares no struct fields", file)
		}
	}
}
