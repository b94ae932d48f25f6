package ampom

import (
	"go/ast"
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

// surfaceAllowlist names internal exports that production code does not
// reference but that stay exported on purpose, each with its reason.
var surfaceAllowlist = map[string]string{
	"ampom/internal/memory.MustLayout": "panicking Layout constructor the package's own tests and the hpcc tests build fixtures with",
	"ampom/internal/infod.Gossip.Stop": "counterpart of Start; the gossip tests stop the plane to watch entries age out",
}

// TestNoDeadInternalSurface keeps dead surface from growing back: every
// exported top-level func, type, var and const declared by a package under
// internal/ must be referenced by some non-test Go file in the repo,
// perfbench included. A reference from another package is a selector on
// an import of the declaring package; one from inside the package is a
// use of the name outside the symbol's own declaration and methods. The
// same holds for every exported method, selected outside its own body,
// except a method that satisfies an interface (it may be called through
// one) and a method of a type reachable from the root facade (code
// outside the repo calls it). A symbol only tests reach belongs in a
// _test.go file.
func TestNoDeadInternalSurface(t *testing.T) {
	s := newSurfaceScan()
	if err := filepath.WalkDir(".", s.visit); err != nil {
		t.Fatal(err)
	}
	if len(s.decls) == 0 {
		t.Fatal("no internal declarations found: is the test running at the repo root?")
	}
	for key, u := range scanRepo(t).methods {
		s.decls[key] = u.pos
		if u.used {
			s.refs[key] = true
		}
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

// stdAsserted are the interfaces the standard library finds by anonymous
// type assertion, so no package scope declares them.
const stdAsserted = `package p
type unwrapper interface{ Unwrap() error }
type multiUnwrapper interface{ Unwrap() []error }
type iser interface{ Is(error) bool }
type aser interface{ As(any) bool }
`

// checkMethods records the exported methods declared under internal/,
// except those of a facade type or satisfying an interface, and marks the
// ones production code selects outside their own bodies.
func (s *stateScan) checkMethods(paths []string, facade map[*types.Named]bool) map[string]*declUse {
	ifaces := s.interfaces()
	methods := map[*types.Func]*declUse{}
	bodies := map[*types.Func]*ast.FuncDecl{}
	for _, p := range paths {
		if !strings.HasPrefix(p, "ampom/internal/") {
			continue
		}
		for _, f := range s.files[p] {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Recv == nil || !fd.Name.IsExported() {
					continue
				}
				fn := s.info.Defs[fd.Name].(*types.Func)
				recv := fn.Type().(*types.Signature).Recv().Type()
				if ptr, ok := recv.(*types.Pointer); ok {
					recv = ptr.Elem()
				}
				named := recv.(*types.Named).Origin()
				if facade[named] || satisfiesInterface(named, fn.Name(), ifaces) {
					continue
				}
				methods[fn] = &declUse{
					key: p + "." + named.Obj().Name() + "." + fn.Name(),
					pos: s.fset.Position(fd.Name.Pos()).String(),
				}
				bodies[fn] = fd
			}
		}
	}
	for sel, selection := range s.info.Selections {
		if selection.Kind() == types.FieldVal {
			continue
		}
		fn := selection.Obj().(*types.Func).Origin()
		if u, ok := methods[fn]; ok && (sel.Pos() < bodies[fn].Pos() || sel.Pos() >= bodies[fn].End()) {
			u.used = true
		}
	}
	out := make(map[string]*declUse, len(methods))
	for _, u := range methods {
		out[u.key] = u
	}
	return out
}

// interfaces returns every interface a method could be called through:
// those declared at package level in the repo and in every package it
// imports, the interface literals the repo writes, error, and the ones
// in stdAsserted.
func (s *stateScan) interfaces() []*types.Interface {
	ifaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	add := func(pkg *types.Package) {
		for _, name := range pkg.Scope().Names() {
			if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok {
					ifaces = append(ifaces, it)
				}
			}
		}
	}
	seen := map[*types.Package]bool{}
	var walk func(pkg *types.Package)
	walk = func(pkg *types.Package) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		add(pkg)
		for _, im := range pkg.Imports() {
			walk(im)
		}
	}
	for _, pkg := range s.pkgs {
		walk(pkg)
	}
	for _, tv := range s.info.Types {
		if it, ok := tv.Type.(*types.Interface); ok {
			ifaces = append(ifaces, it)
		}
	}
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "asserted.go", stdAsserted, 0)
	if err != nil {
		panic(err)
	}
	pkg, err := (&types.Config{}).Check("p", fset, []*ast.File{f}, nil)
	if err != nil {
		panic(err)
	}
	add(pkg)
	return ifaces
}

// satisfiesInterface reports whether named, or a pointer to it, implements
// an interface that has a method called name.
func satisfiesInterface(named *types.Named, name string, ifaces []*types.Interface) bool {
	for _, it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == name &&
				(types.Implements(named, it) || types.Implements(types.NewPointer(named), it)) {
				return true
			}
		}
	}
	return false
}
