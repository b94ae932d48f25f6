package ampom

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// writeOnlyAllowlist names internal struct fields that production code
// writes but never reads and that stay on purpose, keyed
// "importpath.Type.field", each with its reason.
var writeOnlyAllowlist = map[string]string{}

// TestNoWriteOnlyState keeps write-only state from growing back: every
// struct field declared by a package under internal/ that is unexported,
// or belongs to an unexported type, must be read by some non-test Go file
// in the repo, perfbench included. A write is the left-hand side of an
// assignment, the operand of ++ or --, or a composite-literal key; every
// other use of the field is a read.
func TestNoWriteOnlyState(t *testing.T) {
	s := &stateScan{fset: token.NewFileSet(), files: map[string][]*ast.File{}}
	if err := filepath.WalkDir(".", s.visit); err != nil {
		t.Fatal(err)
	}
	if len(s.files) == 0 {
		t.Fatal("no Go files found: is the test running at the repo root?")
	}
	fields, err := s.check()
	if err != nil {
		t.Fatal(err)
	}
	for key := range writeOnlyAllowlist {
		if f, ok := fields[key]; !ok {
			t.Errorf("allowlist entry %s names no checked internal field", key)
		} else if f.read {
			t.Errorf("allowlist entry %s is read by production code; drop it", key)
		}
	}
	var unread []string
	for key, f := range fields {
		if _, ok := writeOnlyAllowlist[key]; !f.read && !ok {
			unread = append(unread, f.pos+": "+key)
		}
	}
	sort.Strings(unread)
	for _, u := range unread {
		t.Errorf("field is never read by production code (delete it and its writes): %s", u)
	}
}

// stateScan type-checks the repo's non-test Go files, keyed by import
// path, and classifies every use of an internal struct field.
type stateScan struct {
	fset  *token.FileSet
	files map[string][]*ast.File
	pkgs  map[string]*types.Package
	std   types.Importer
	info  *types.Info
}

// fieldUse is one checked field: its "importpath.Type.field" key, where
// it is declared, and whether any production code reads it.
type fieldUse struct {
	key, pos string
	read     bool
}

func (s *stateScan) visit(p string, d fs.DirEntry, err error) error {
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
	s.files[pkg] = append(s.files[pkg], f)
	return nil
}

// Import type-checks a repo package from its parsed files on first use
// and hands every other import to the standard library source importer.
func (s *stateScan) Import(p string) (*types.Package, error) {
	if pkg, ok := s.pkgs[p]; ok {
		return pkg, nil
	}
	files, ok := s.files[p]
	if !ok {
		return s.std.Import(p)
	}
	conf := types.Config{Importer: s}
	pkg, err := conf.Check(p, s.fset, files, s.info)
	if err != nil {
		return nil, err
	}
	s.pkgs[p] = pkg
	return pkg, nil
}

// check type-checks every package and returns the checked fields, keyed
// "importpath.Type.field".
func (s *stateScan) check() (map[string]*fieldUse, error) {
	s.pkgs = map[string]*types.Package{}
	s.std = importer.ForCompiler(s.fset, "source", nil)
	s.info = &types.Info{
		Defs:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	paths := make([]string, 0, len(s.files))
	for p := range s.files {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if _, err := s.Import(p); err != nil {
			return nil, err
		}
	}

	fields := map[*types.Var]*fieldUse{}
	writes := map[ast.Expr]bool{}
	for _, p := range paths {
		for _, f := range s.files[p] {
			if strings.HasPrefix(p, "ampom/internal/") {
				s.declaredFields(p, f, fields)
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.AssignStmt:
					for _, l := range x.Lhs {
						writes[ast.Unparen(l)] = true
					}
				case *ast.IncDecStmt:
					writes[ast.Unparen(x.X)] = true
				}
				return true
			})
		}
	}
	for sel, selection := range s.info.Selections {
		if selection.Kind() != types.FieldVal || writes[sel] {
			continue
		}
		if u, ok := fields[selection.Obj().(*types.Var).Origin()]; ok {
			u.read = true
		}
	}

	out := make(map[string]*fieldUse, len(fields))
	for _, u := range fields {
		out[u.key] = u
	}
	return out, nil
}

// declaredFields records the named fields of every struct type f
// declares that are unexported or belong to an unexported type. Embedded
// fields are left out: they are reached through the names they promote.
func (s *stateScan) declaredFields(pkg string, f *ast.File, fields map[*types.Var]*fieldUse) {
	ast.Inspect(f, func(n ast.Node) bool {
		ts, ok := n.(*ast.TypeSpec)
		if !ok {
			return true
		}
		ast.Inspect(ts.Type, func(n ast.Node) bool {
			field, ok := n.(*ast.Field)
			if !ok {
				return true
			}
			for _, id := range field.Names {
				v, ok := s.info.Defs[id].(*types.Var)
				if !ok || !v.IsField() || (v.Exported() && ts.Name.IsExported()) {
					continue
				}
				fields[v] = &fieldUse{
					key: pkg + "." + ts.Name.Name + "." + id.Name,
					pos: s.fset.Position(id.Pos()).String(),
				}
			}
			return true
		})
		return false
	})
}
