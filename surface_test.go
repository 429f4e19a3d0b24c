package aspectpar_test

import (
	"bufio"
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// The product surface of internal/rmi and internal/par is what products
// call. TestSurfaceCensus type-checks every package of the module, and of
// the benchmark module beside it, from source, and lists each exported
// name of rmi and par that no non-test file outside its own package uses:
// top-level names, the methods of named types and the fields of exported
// structs. A name counts as used when such a file names it, holds a value
// of it (a type), reaches it through a promoted selection (an embedded
// field), or fills it in an unkeyed literal (a field). A method also counts
// when its type satisfies an interface that product code uses, a standard
// library interface, or error; an interface counts when a type of another
// package implements it. The benchmark module's own test file counts as a
// user: that module is a frozen consumer of the API.
//
// SURFACE_unused lists the census, one name and a one-line reason per line.
// The test fails when the census finds a name the file does not list, and
// when a listed name has gained a user or no longer exists: the list can
// only shrink.

const (
	modulePath  = "aspectpar"
	surfaceFile = "SURFACE_unused"
)

var surfacePkgs = []string{"aspectpar/internal/rmi", "aspectpar/internal/par"}

func TestSurfaceCensus(t *testing.T) {
	unused, err := surfaceCensus(".")
	if err != nil {
		t.Fatal(err)
	}
	listed, err := readSurfaceList(surfaceFile)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("census: %d exported names of rmi and par have no product user; %s lists %d", len(unused), surfaceFile, len(listed))
	found := map[string]bool{}
	for _, name := range unused {
		found[name] = true
		if _, ok := listed[name]; !ok {
			t.Errorf("%s has no product user and is not listed in %s: delete it, unexport it, or list it with its reason", name, surfaceFile)
		}
	}
	for _, name := range slices.Sorted(maps.Keys(listed)) {
		if !found[name] {
			t.Errorf("%s is listed in %s but has a product user or no longer exists: take it off the list", name, surfaceFile)
		}
	}
}

// readSurfaceList reads "name reason..." lines; blank lines and lines
// starting with '#' are skipped, and every name needs a reason.
func readSurfaceList(path string) (map[string]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	list := map[string]string{}
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, reason, _ := strings.Cut(line, " ")
		if strings.TrimSpace(reason) == "" {
			return nil, fmt.Errorf("%s:%d: %s has no reason", path, n, name)
		}
		if _, dup := list[name]; dup {
			return nil, fmt.Errorf("%s:%d: %s is listed twice", path, n, name)
		}
		list[name] = reason
	}
	return list, sc.Err()
}

// checkedPkg is one module package, type-checked from its non-test files.
type checkedPkg struct {
	pkg  *types.Package
	info *types.Info
}

// census type-checks module packages on demand; the standard library goes
// through the source importer, so nothing outside GOROOT is read.
type census struct {
	root string
	fset *token.FileSet
	std  types.Importer
	pkgs map[string]*checkedPkg
}

func (c *census) Import(path string) (*types.Package, error) {
	if !isModule(path) {
		return c.std.Import(path)
	}
	p, err := c.load(path)
	if err != nil {
		return nil, err
	}
	return p.pkg, nil
}

func (c *census) load(path string) (*checkedPkg, error) {
	if p, ok := c.pkgs[path]; ok {
		if p == nil {
			return nil, fmt.Errorf("import cycle through %s", path)
		}
		return p, nil
	}
	c.pkgs[path] = nil
	dir := filepath.Join(c.root, filepath.FromSlash(strings.TrimPrefix(strings.TrimPrefix(path, modulePath), "/")))
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	names := bp.GoFiles
	if bp.Name == "main" && strings.HasSuffix(path, "/benchmark") {
		names = append(append([]string(nil), names...), bp.TestGoFiles...)
	}
	p := &checkedPkg{info: &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(c.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	conf := types.Config{Importer: c}
	if p.pkg, err = conf.Check(path, c.fset, files, p.info); err != nil {
		return nil, err
	}
	c.pkgs[path] = p
	return p, nil
}

// surfaceCensus returns the exported names of rmi and par that no product
// user outside their own package uses, sorted.
func surfaceCensus(root string) ([]string, error) {
	fset := token.NewFileSet()
	c := &census{root: root, fset: fset, std: importer.ForCompiler(fset, "source", nil), pkgs: map[string]*checkedPkg{}}
	if err := c.loadAll(); err != nil {
		return nil, err
	}
	u := &usage{owned: map[*types.Package]bool{}, used: map[types.Object]bool{}, seen: map[*types.Interface]bool{}}
	for _, path := range surfacePkgs {
		u.owned[c.pkgs[path].pkg] = true
	}
	// error, the protocols package errors calls by assertion, and every
	// exported interface of an imported standard package: the library
	// calls those methods itself (fmt.Stringer, io.Writer, ...).
	u.addIface(types.Universe.Lookup("error").Type())
	for _, proto := range []string{"interface{ Unwrap() error }", "interface{ Unwrap() []error }", "interface{ Is(error) bool }", "interface{ As(any) bool }"} {
		tv, err := types.Eval(fset, nil, token.NoPos, proto)
		if err != nil {
			return nil, err
		}
		u.addIface(tv.Type)
	}
	var userTypes []*types.Named // the module's top-level concrete types
	for _, p := range c.pkgs {
		u.scan(p)
		for _, imp := range p.pkg.Imports() {
			if !isModule(imp.Path()) {
				u.addScopeIfaces(imp.Scope())
			}
		}
		for _, name := range p.pkg.Scope().Names() {
			if tn, ok := p.pkg.Scope().Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
				if n, ok := tn.Type().(*types.Named); ok && !types.IsInterface(n) && n.TypeParams().Len() == 0 {
					userTypes = append(userTypes, n)
				}
			}
		}
	}

	var unused []string
	for _, path := range surfacePkgs {
		pkg := c.pkgs[path].pkg
		prefix := pkg.Name() + "."
		for _, name := range pkg.Scope().Names() {
			obj := pkg.Scope().Lookup(name)
			if !obj.Exported() {
				continue
			}
			named, _ := obj.Type().(*types.Named)
			if tn, ok := obj.(*types.TypeName); !ok || tn.IsAlias() {
				named = nil
			}
			if !u.used[obj] && !(named != nil && implementedBy(named, userTypes)) {
				unused = append(unused, prefix+name)
			}
			if named == nil {
				continue
			}
			for i := range named.NumMethods() {
				if m := named.Method(i); m.Exported() && !u.used[m] && !satisfiesAny(named, m.Name(), u.ifaces) {
					unused = append(unused, prefix+name+"."+m.Name())
				}
			}
			if st, ok := named.Underlying().(*types.Struct); ok {
				for i := range st.NumFields() {
					if f := st.Field(i); f.Exported() && !u.used[f] {
						unused = append(unused, prefix+name+"."+f.Name())
					}
				}
			}
		}
	}
	slices.Sort(unused)
	return unused, nil
}

func isModule(path string) bool { return path == modulePath || strings.HasPrefix(path, modulePath+"/") }

// loadAll type-checks every package directory under the root.
func (c *census) loadAll() error {
	return filepath.WalkDir(c.root, func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if base := d.Name(); path != c.root && (strings.HasPrefix(base, ".") || strings.HasPrefix(base, "_") || base == "testdata") {
			return filepath.SkipDir
		}
		bp, err := build.ImportDir(path, 0)
		var noGo *build.NoGoError
		if errors.As(err, &noGo) || err == nil && len(bp.GoFiles) == 0 {
			return nil
		} else if err != nil {
			return err
		}
		rel, _ := filepath.Rel(c.root, path)
		_, err = c.load(strings.TrimSuffix(modulePath+"/"+filepath.ToSlash(rel), "/."))
		return err
	})
}

// usage gathers what product code uses of rmi and par.
type usage struct {
	owned  map[*types.Package]bool
	used   map[types.Object]bool // rmi/par objects with a product user outside their package
	seen   map[*types.Interface]bool
	ifaces []*types.Interface // interfaces product code uses, for method satisfaction
}

func (u *usage) addIface(t types.Type) {
	if it, ok := t.Underlying().(*types.Interface); ok && !it.Empty() && !u.seen[it] {
		u.seen[it] = true
		u.ifaces = append(u.ifaces, it)
	}
}

func (u *usage) addScopeIfaces(scope *types.Scope) {
	for _, name := range scope.Names() {
		if tn, ok := scope.Lookup(name).(*types.TypeName); ok && tn.Exported() {
			u.addIface(tn.Type())
		}
	}
}

// scan records the interfaces a package's files use, and every rmi or par
// object those files reach outside the object's own package.
func (u *usage) scan(p *checkedPkg) {
	mark := func(obj types.Object) {
		if obj.Pkg() != nil && obj.Pkg() != p.pkg && u.owned[obj.Pkg()] {
			u.used[origin(obj)] = true
		}
	}
	for _, obj := range p.info.Uses {
		if tn, ok := obj.(*types.TypeName); ok {
			u.addIface(tn.Type())
		}
		mark(obj)
	}
	for expr, tv := range p.info.Types {
		if tv.IsType() {
			u.addIface(tv.Type)
		}
		t := deref(tv.Type)
		if n, ok := t.(*types.Named); ok {
			mark(n.Origin().Obj())
		}
		if lit, ok := expr.(*ast.CompositeLit); ok && len(lit.Elts) > 0 {
			if _, keyed := lit.Elts[0].(*ast.KeyValueExpr); !keyed {
				if st, ok := t.Underlying().(*types.Struct); ok {
					for i := range st.NumFields() {
						mark(st.Field(i))
					}
				}
			}
		}
	}
	// A promoted selection uses every embedded field on its path.
	for _, sel := range p.info.Selections {
		t, idx := sel.Recv(), sel.Index()
		for _, i := range idx[:len(idx)-1] {
			st, ok := deref(t).Underlying().(*types.Struct)
			if !ok {
				break
			}
			f := st.Field(i)
			mark(f)
			t = f.Type()
		}
	}
}

// satisfiesAny reports whether T or *T implements one of the interfaces
// and that interface declares the method name.
func satisfiesAny(named *types.Named, name string, ifaces []*types.Interface) bool {
	if named.TypeParams().Len() > 0 {
		return false
	}
	ptr := types.NewPointer(named)
	for _, it := range ifaces {
		if obj, _, _ := types.LookupFieldOrMethod(it, false, nil, name); obj != nil && (types.Implements(named, it) || types.Implements(ptr, it)) {
			return true
		}
	}
	return false
}

// implementedBy reports whether iface is an interface that a type of
// another package implements: a product using it without naming it.
func implementedBy(iface *types.Named, userTypes []*types.Named) bool {
	it, ok := iface.Underlying().(*types.Interface)
	if !ok || it.Empty() || iface.TypeParams().Len() > 0 {
		return false
	}
	for _, n := range userTypes {
		if n.Obj().Pkg() != iface.Obj().Pkg() && (types.Implements(n, it) || types.Implements(types.NewPointer(n), it)) {
			return true
		}
	}
	return false
}

func deref(t types.Type) types.Type {
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}
