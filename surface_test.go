package ampom

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// surfaceAllowlist names internal exports that production code does not
// reference but that stay exported on purpose, each with its reason.
var surfaceAllowlist = map[string]string{
	"ampom/internal/memory.MustLayout": "panicking Layout constructor the package's own tests and the hpcc tests build fixtures with",
}

// TestNoDeadInternalSurface keeps dead surface from growing back: every
// exported top-level func, type, var and const declared by a package under
// internal/ must be referenced by some non-test Go file in the repo,
// perfbench included. A reference from another package is a selector on
// an import of the declaring package; one from inside the package is a
// use of the name outside the symbol's own declaration and methods. A
// symbol only tests reach belongs in a _test.go file.
func TestNoDeadInternalSurface(t *testing.T) {
	s := newSurfaceScan()
	if err := filepath.WalkDir(".", s.visit); err != nil {
		t.Fatal(err)
	}
	if len(s.decls) == 0 {
		t.Fatal("no internal declarations found: is the test running at the repo root?")
	}
	var dead []string
	for key, pos := range s.decls {
		if s.refs[key] {
			continue
		}
		if _, ok := surfaceAllowlist[key]; ok {
			continue
		}
		dead = append(dead, pos+": "+key)
	}
	for key := range surfaceAllowlist {
		if _, ok := s.decls[key]; !ok {
			t.Errorf("allowlist entry %s names no internal declaration", key)
		} else if s.refs[key] {
			t.Errorf("allowlist entry %s is referenced by production code; drop it", key)
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("exported but referenced only by tests (delete it or move it into a _test.go file): %s", d)
	}
}

// surfaceScan collects internal declarations and production references,
// both keyed "importpath.Name".
type surfaceScan struct {
	fset  *token.FileSet
	decls map[string]string // key -> declaring position
	refs  map[string]bool
}

func newSurfaceScan() *surfaceScan {
	return &surfaceScan{fset: token.NewFileSet(), decls: map[string]string{}, refs: map[string]bool{}}
}

func (s *surfaceScan) visit(p string, d fs.DirEntry, err error) error {
	if err != nil {
		return err
	}
	name := d.Name()
	if d.IsDir() {
		if p != "." && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		return nil
	}
	if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
		return nil
	}
	f, err := parser.ParseFile(s.fset, p, nil, parser.SkipObjectResolution)
	if err != nil {
		return err
	}
	// The perfbench module replaces ampom with the repo root, so every
	// directory's import path is the module path plus its slash path.
	pkg := path.Join("ampom", filepath.ToSlash(filepath.Dir(p)))
	s.file(pkg, f)
	return nil
}

func (s *surfaceScan) file(pkg string, f *ast.File) {
	checked := strings.HasPrefix(pkg, "ampom/internal/") && pkg != "ampom/internal/clitest"
	imports := map[string]string{}
	for _, im := range f.Imports {
		ip := strings.Trim(im.Path.Value, `"`)
		local := path.Base(ip)
		if im.Name != nil {
			local = im.Name.Name
		}
		imports[local] = ip
	}
	for _, decl := range f.Decls {
		owners := map[string]bool{}
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				owners[d.Name.Name] = true
				if checked && d.Name.IsExported() {
					s.decls[pkg+"."+d.Name.Name] = s.fset.Position(d.Pos()).String()
				}
			} else if len(d.Recv.List) > 0 {
				owners[receiverBase(d.Recv.List[0].Type)] = true
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				var names []*ast.Ident
				switch sp := spec.(type) {
				case *ast.TypeSpec:
					names = []*ast.Ident{sp.Name}
				case *ast.ValueSpec:
					names = sp.Names
				}
				for _, n := range names {
					owners[n.Name] = true
					if checked && n.IsExported() {
						s.decls[pkg+"."+n.Name] = s.fset.Position(n.Pos()).String()
					}
				}
			}
		}
		s.refsIn(pkg, imports, owners, decl)
	}
}

// refsIn records every reference decl makes, except those to the
// symbols it declares itself (owners), so a type's own methods or a
// recursive call do not keep it alive.
func (s *surfaceScan) refsIn(pkg string, imports map[string]string, owners map[string]bool, decl ast.Decl) {
	skip := map[*ast.Ident]bool{}
	ast.Inspect(decl, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncDecl:
			skip[x.Name] = true
		case *ast.TypeSpec:
			skip[x.Name] = true
		case *ast.ValueSpec:
			for _, id := range x.Names {
				skip[id] = true
			}
		case *ast.Field:
			for _, id := range x.Names {
				skip[id] = true
			}
		case *ast.SelectorExpr:
			skip[x.Sel] = true
			if id, ok := x.X.(*ast.Ident); ok {
				if ip, ok := imports[id.Name]; ok {
					skip[id] = true
					s.refs[ip+"."+x.Sel.Name] = true
				}
			}
		case *ast.Ident:
			if !skip[x] && !owners[x.Name] {
				s.refs[pkg+"."+x.Name] = true
			}
		}
		return true
	})
}

// receiverBase returns the type name of a method receiver expression.
func receiverBase(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}
