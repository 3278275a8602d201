package repro

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// Dead surface: every package-level func, type, var, const, method and
// struct field of the module's non-test code that no non-test code
// references is either deleted or listed in testdata/deadsurface.allow
// with one of the categories below and a reason. See DESIGN.md "Dead
// surface".

// surfaceCategories are the reasons an unreferenced name may stay.
var surfaceCategories = map[string]bool{
	"paper":              true, // a formula of the paper a test pins; the reason gives its §
	"example":            true, // public surface a godoc Example shows; the reason names it
	"test-reference":     true, // the reference a test checks production code against
	"cross-package-test": true, // a helper tests in other packages call
	"bench":              true, // bench/ changes only with the benchmark
}

// surfaceBuilds are the build configurations whose references are
// unioned: a name only a big-endian or a poolcheck file reaches is live.
var surfaceBuilds = []struct{ goarch, tags string }{
	{"amd64", ""},
	{"s390x", ""},
	{"amd64", "poolcheck"},
}

func TestNoDeadSurface(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the module three times")
	}
	dead, err := deadSurface(".")
	if err != nil {
		t.Fatal(err)
	}
	allow, err := readSurfaceAllow("testdata/deadsurface.allow")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range dead {
		if _, ok := allow[name]; !ok {
			t.Errorf("%s: no non-test code references it; delete it, move it into a test file, or allowlist it", name)
		}
		delete(allow, name)
	}
	for name := range allow {
		t.Errorf("testdata/deadsurface.allow: %s is stale: it is referenced or no longer exists", name)
	}
}

// TestDeadSurfaceFixture runs the checker on a module that plants one
// dead function, method and field next to surface that must not be
// reported.
func TestDeadSurfaceFixture(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the fixture module three times")
	}
	dead, err := deadSurface("testdata/deadsurface")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"fixture.guarded.reset", "fixture.record.note", "fixture.unused"}
	if !slices.Equal(dead, want) {
		t.Fatalf("dead surface = %q, want %q", dead, want)
	}
}

// readSurfaceAllow parses the allowlist: name, category, reason, one
// tab-separated entry per line.
func readSurfaceAllow(path string) (map[string]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	allow := map[string]string{}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for n := 1; sc.Scan(); n++ {
		f := strings.Split(sc.Text(), "\t")
		switch {
		case len(f) != 3 || f[0] == "" || strings.TrimSpace(f[2]) == "":
			return nil, fmt.Errorf("%s:%d: want name<TAB>category<TAB>reason", path, n)
		case !surfaceCategories[f[1]]:
			return nil, fmt.Errorf("%s:%d: unknown category %q", path, n, f[1])
		case f[1] == "paper" && !strings.Contains(f[2], "§"):
			return nil, fmt.Errorf("%s:%d: a paper entry names its §", path, n)
		}
		if _, dup := allow[f[0]]; dup {
			return nil, fmt.Errorf("%s:%d: %s listed twice", path, n, f[0])
		}
		allow[f[0]] = f[1]
	}
	return allow, sc.Err()
}

// listedPackage is the part of `go list -json` the checker reads.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Standard   bool
	Export     string
	Module     *struct{ Path string }
	Error      *struct{ Err string }
}

func goList(dir string, env []string, args ...string) ([]listedPackage, error) {
	cmd := exec.Command("go", append([]string{"list", "-json"}, args...)...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), append([]string{"GOWORK=off", "GOFLAGS="}, env...)...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(args, " "), err, stderr.Bytes())
	}
	var pkgs []listedPackage
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			return pkgs, nil
		} else if err != nil {
			return nil, err
		}
		if p.Error != nil {
			return nil, fmt.Errorf("go list: %s: %s", p.ImportPath, p.Error.Err)
		}
		pkgs = append(pkgs, p)
	}
}

// surface accumulates, over every build configuration, the names
// declared in the module's non-test code and the ones that code reaches.
type surface struct {
	module   string
	fset     *token.FileSet
	files    map[string]*ast.File
	declared map[string]bool
	live     map[string]bool
}

// deadSurface lists, sorted, the unreferenced names of the module rooted
// at dir, keyed "pkg.Name", "pkg.Type.Method" and "pkg.Type.Field" with
// the package path relative to the module.
func deadSurface(dir string) ([]string, error) {
	s := &surface{fset: token.NewFileSet(), files: map[string]*ast.File{},
		declared: map[string]bool{}, live: map[string]bool{}}
	std := map[string]string{} // import path → export data, for the host build
	imp := importer.ForCompiler(s.fset, "gc", func(path string) (io.ReadCloser, error) {
		if f, ok := std[path]; ok {
			return os.Open(f)
		}
		return nil, fmt.Errorf("no export data for %s", path)
	})
	var builds [][]listedPackage
	stdPaths := map[string]bool{"fmt": true, "io": true, "sort": true, "net": true}
	for _, b := range surfaceBuilds {
		pkgs, err := goList(dir, []string{"GOOS=linux", "GOARCH=" + b.goarch, "CGO_ENABLED=0"},
			"-deps", "-tags="+b.tags, "./...")
		if err != nil {
			return nil, err
		}
		for _, p := range pkgs {
			if p.Standard {
				stdPaths[p.ImportPath] = true
			} else if s.module == "" && p.Module != nil {
				s.module = p.Module.Path
			}
		}
		builds = append(builds, pkgs)
	}
	// The standard library is loaded from the host build's export data:
	// only the module's own code differs between the configurations.
	exp, err := goList(dir, nil, append([]string{"-export", "-deps"}, slices.Sorted(maps.Keys(stdPaths))...)...)
	if err != nil {
		return nil, err
	}
	for _, p := range exp {
		std[p.ImportPath] = p.Export
	}
	for i, pkgs := range builds {
		if err := s.check(pkgs, surfaceBuilds[i].goarch, imp); err != nil {
			return nil, err
		}
	}
	var dead []string
	for name := range s.declared {
		if !s.live[name] {
			dead = append(dead, name)
		}
	}
	slices.Sort(dead)
	return dead, nil
}

// check type-checks one configuration's module packages, in the
// dependency order go list gives them, and records what they declare
// and reach.
func (s *surface) check(pkgs []listedPackage, goarch string, std types.Importer) error {
	checked := map[string]*types.Package{}
	conf := types.Config{
		Sizes: types.SizesFor("gc", goarch),
		Importer: importerFunc(func(path string) (*types.Package, error) {
			if p, ok := checked[path]; ok {
				return p, nil
			}
			return std.Import(path)
		}),
	}
	c := &configCheck{s: s, names: map[types.Object]string{}}
	var infos []*types.Info
	var files [][]*ast.File
	for _, p := range pkgs {
		if p.Standard || len(p.GoFiles) == 0 {
			continue
		}
		var fs []*ast.File
		for _, name := range p.GoFiles {
			f, err := s.parse(filepath.Join(p.Dir, name))
			if err != nil {
				return err
			}
			fs = append(fs, f)
		}
		info := &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}
		pkg, err := conf.Check(p.ImportPath, s.fset, fs, info)
		if err != nil {
			return fmt.Errorf("GOARCH=%s: %v", goarch, err)
		}
		checked[p.ImportPath] = pkg
		c.declare(pkg)
		infos = append(infos, info)
		files = append(files, fs)
	}
	c.satisfy(infos, std)
	for i, info := range infos {
		c.reach(info, files[i])
	}
	return nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

func (s *surface) parse(path string) (*ast.File, error) {
	if f, ok := s.files[path]; ok {
		return f, nil
	}
	f, err := parser.ParseFile(s.fset, path, nil, parser.SkipObjectResolution)
	s.files[path] = f
	return f, err
}

// configCheck names the objects of one configuration.
type configCheck struct {
	s     *surface
	names map[types.Object]string
	named []*types.Named // the module's non-generic defined types
}

func (c *configCheck) name(obj types.Object, key string) {
	c.names[obj] = key
	c.s.declared[key] = true
}

func (c *configCheck) declare(pkg *types.Package) {
	path := strings.TrimPrefix(pkg.Path(), c.s.module+"/")
	scope := pkg.Scope()
	for _, n := range scope.Names() {
		obj := scope.Lookup(n)
		if n == "_" || (n == "main" && pkg.Name() == "main") {
			continue
		}
		key := path + "." + n
		c.name(obj, key)
		tn, ok := obj.(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named := tn.Type().(*types.Named)
		if _, iface := named.Underlying().(*types.Interface); iface {
			continue
		}
		if named.TypeParams() == nil {
			c.named = append(c.named, named)
		}
		for i := 0; i < named.NumMethods(); i++ {
			c.name(named.Method(i), key+"."+named.Method(i).Name())
		}
		if st, ok := named.Underlying().(*types.Struct); ok {
			for i := 0; i < st.NumFields(); i++ {
				f := st.Field(i)
				if _, tagged := reflect.StructTag(st.Tag(i)).Lookup("json"); tagged {
					continue
				}
				c.name(f, key+"."+f.Name())
			}
		}
	}
}

func (c *configCheck) use(obj types.Object) {
	switch o := obj.(type) {
	case *types.Func:
		obj = o.Origin()
	case *types.Var:
		obj = o.Origin()
	}
	if key, ok := c.names[obj]; ok {
		c.s.live[key] = true
	}
}

// usePath marks the embedded fields a selection or lookup walks through
// to reach a promoted member.
func (c *configCheck) usePath(t types.Type, index []int) {
	for _, i := range index[:len(index)-1] {
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		st, ok := t.Underlying().(*types.Struct)
		if !ok {
			return
		}
		c.use(st.Field(i))
		t = st.Field(i).Type()
	}
}

// satisfy treats as reached every method through which a module type
// satisfies an interface: one the module mentions, or error,
// fmt.Stringer, or one of io, sort and net.
func (c *configCheck) satisfy(infos []*types.Info, std types.Importer) {
	var ifaces []*types.Interface
	seen := map[types.Type]bool{}
	add := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 && !seen[t] {
			seen[t] = true
			ifaces = append(ifaces, it)
		}
	}
	add(types.Universe.Lookup("error").Type())
	for _, path := range []string{"fmt", "io", "sort", "net"} {
		pkg, err := std.Import(path)
		if err != nil {
			continue
		}
		for _, n := range pkg.Scope().Names() {
			if tn, ok := pkg.Scope().Lookup(n).(*types.TypeName); ok && tn.Exported() {
				if path != "fmt" || n == "Stringer" {
					add(tn.Type())
				}
			}
		}
	}
	for _, info := range infos {
		for _, tv := range info.Types {
			if tv.IsType() {
				add(tv.Type)
			}
		}
	}
	for _, named := range c.named {
		ptr := types.NewPointer(named)
		for _, it := range ifaces {
			if !types.Implements(ptr, it) {
				continue
			}
			for i := 0; i < it.NumMethods(); i++ {
				m := it.Method(i)
				obj, index, _ := types.LookupFieldOrMethod(ptr, false, m.Pkg(), m.Name())
				if obj != nil {
					c.use(obj)
					c.usePath(ptr, index)
				}
			}
		}
	}
}

// reach records every reference one package's files make, except a
// declaration's references to itself and a method's to its receiver
// type.
func (c *configCheck) reach(info *types.Info, files []*ast.File) {
	for _, f := range files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				c.reachExcept(info, d.Type, info.Defs[d.Name])
				if d.Body != nil {
					c.reachExcept(info, d.Body, info.Defs[d.Name])
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						c.reachExcept(info, spec, info.Defs[spec.Name])
					case *ast.ValueSpec:
						for _, n := range spec.Names {
							c.reachExcept(info, spec, info.Defs[n])
						}
					}
				}
			}
		}
	}
	for _, sel := range info.Selections {
		c.usePath(sel.Recv(), sel.Index())
	}
}

// reachExcept marks what node references, bar self, and every field of
// a struct literal written without keys.
func (c *configCheck) reachExcept(info *types.Info, node ast.Node, self types.Object) {
	ast.Inspect(node, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			if obj := info.Uses[n]; obj != nil && obj != self {
				c.use(obj)
			}
		case *ast.CompositeLit:
			if len(n.Elts) == 0 {
				break
			}
			if _, keyed := n.Elts[0].(*ast.KeyValueExpr); keyed {
				break
			}
			if st, ok := info.Types[n].Type.Underlying().(*types.Struct); ok {
				for i := 0; i < st.NumFields(); i++ {
					c.use(st.Field(i))
				}
			}
		}
		return true
	})
}
