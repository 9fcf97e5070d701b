package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestNoWriteOnlyFields fails on state nothing reads: an unexported
// struct field of the module that its package's non-test code assigns —
// with =, :=, ++/--, or as a composite-literal key — but never otherwise
// selects. Fields are keyed by name within each package, so a read of
// any field of that name keeps them all. Tests do not count as readers:
// a field only a test reads is a test fixture living in program code.
// bench/ is its own module.
func TestNoWriteOnlyFields(t *testing.T) {
	pkgs := scanFieldUse(t, ".")
	if len(pkgs) == 0 {
		t.Fatal("scan found no packages")
	}
	var found []string
	for dir, use := range pkgs {
		for name := range use.declared {
			if use.writes[name] && !use.reads[name] {
				found = append(found, dir+": "+name)
			}
		}
	}
	sort.Strings(found)
	for _, f := range found {
		t.Errorf("%s is assigned but never read; delete the field", f)
	}
}

// fieldUse records, for one package, the unexported field names its
// struct types declare and how the package's code selects each name.
type fieldUse struct {
	declared, writes, reads map[string]bool
}

// scanFieldUse parses every non-test Go file under root (skipping
// bench/, testdata and hidden directories) and returns the field use of
// each package directory.
func scanFieldUse(t *testing.T, root string) map[string]*fieldUse {
	t.Helper()
	pkgs := map[string]*fieldUse{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (d.Name() == "bench" || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
		if err != nil {
			return err
		}
		dir := filepath.Dir(path)
		use := pkgs[dir]
		if use == nil {
			use = &fieldUse{declared: map[string]bool{}, writes: map[string]bool{}, reads: map[string]bool{}}
			pkgs[dir] = use
		}
		use.add(file)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return pkgs
}

// add records one file's declarations, writes and reads.
func (u *fieldUse) add(file *ast.File) {
	// Selectors that are the target of an assignment; every other
	// selector is a read.
	written := map[*ast.SelectorExpr]bool{}
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.StructType:
			for _, f := range n.Fields.List {
				for _, name := range f.Names {
					if !name.IsExported() && name.Name != "_" {
						u.declared[name.Name] = true
					}
				}
			}
		case *ast.AssignStmt:
			if n.Tok == token.ASSIGN || n.Tok == token.DEFINE {
				for _, lhs := range n.Lhs {
					if sel, ok := lhs.(*ast.SelectorExpr); ok {
						written[sel] = true
					}
				}
			}
		case *ast.IncDecStmt:
			if sel, ok := n.X.(*ast.SelectorExpr); ok {
				written[sel] = true
			}
		case *ast.CompositeLit:
			for _, elt := range n.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					if key, ok := kv.Key.(*ast.Ident); ok {
						u.writes[key.Name] = true
					}
				}
			}
		case *ast.SelectorExpr:
			if written[n] {
				u.writes[n.Sel.Name] = true
			} else {
				u.reads[n.Sel.Name] = true
			}
		}
		return true
	})
}
