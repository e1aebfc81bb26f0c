package analyzers

import "go/types"

// TestOnly reports exported identifiers under stcam/internal/ that no
// non-test file of the module uses: API that only its own tests keep alive.
//
// It is a whole-module pass over every package the loader has type-checked
// (the loader skips _test.go files), so the caller loads the whole module
// first; stcamlint and TestTreeIsClean do. An identifier counts as used when:
//
//   - a non-test file refers to it (types.Info.Uses), or selects through it
//     (an embedded field on a promoted selection's path);
//   - it is a method whose type implements an interface with that method
//     which the module's types reach, signatures included (heap.Interface
//     through heap.Push), or which an imported package declares
//     (fmt.Stringer): the call may be dynamic;
//   - it is a struct field with a tag, which reflection reads.
//
// A type alias makes the aliased type used, not its methods, so the stcam.go
// facade keeps no method alive. A field set only by an unkeyed struct literal
// counts as unused: key the literal.
var TestOnly = &Analyzer{
	Name: "testonly",
	Doc: "report exported funcs, methods, types, fields, vars and consts under stcam/internal/ " +
		"that no non-test file uses; delete them, or document a deliberate test seam with //lint:allow",
	Match: func(p string) bool { return pathIn(p, "stcam/internal") },
	Run:   runTestOnly,
}

// usage is the module-wide use index testonly checks declarations against.
type usage struct {
	used   map[types.Object]bool
	ifaces []*types.Interface // every interface with at least one method
}

func runTestOnly(pass *Pass) {
	u := pass.loader.usage()
	report := func(obj types.Object, name string) {
		pass.Report(obj.Pos(), "exported %s is used only by tests: delete it, or keep it with //lint:allow testonly <reason>", name)
	}
	scope := pass.Pkg.Scope()
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		if obj.Exported() && !u.used[obj] {
			report(obj, name)
		}
		named, ok := obj.Type().(*types.Named)
		if _, isType := obj.(*types.TypeName); !isType || !ok || named.Obj() != obj {
			continue // not a defined type: a func, var, const or alias
		}
		for i := range named.NumMethods() {
			if m := named.Method(i); m.Exported() && !u.used[m] && !u.satisfies(named, m.Name()) {
				report(m, name+"."+m.Name())
			}
		}
		if st, ok := named.Underlying().(*types.Struct); ok {
			for i := range st.NumFields() {
				f := st.Field(i)
				if f.Exported() && !f.Embedded() && st.Tag(i) == "" && !u.used[f] {
					report(f, name+"."+f.Name())
				}
			}
		}
	}
}

// satisfies reports whether T or *T implements some collected interface
// that declares a method called name.
func (u *usage) satisfies(named *types.Named, name string) bool {
	for _, it := range u.ifaces {
		for i := range it.NumMethods() {
			if it.Method(i).Name() == name && (types.Implements(named, it) || types.Implements(types.NewPointer(named), it)) {
				return true
			}
		}
	}
	return false
}

// usage builds the use index over every package loaded so far, once per
// package count: LoadAll before the first pass sees the whole module.
func (l *Loader) usage() *usage {
	if l.uses != nil && l.usesOver == len(l.pkgs) {
		return l.uses
	}
	u := &usage{used: map[types.Object]bool{}}
	seen := map[types.Type]bool{}
	for _, p := range l.pkgs {
		for _, obj := range p.Info.Uses {
			u.use(obj)
		}
		for _, sel := range p.Info.Selections {
			u.usePath(sel)
		}
		for _, tv := range p.Info.Types {
			u.collect(tv.Type, seen)
		}
		for _, imp := range p.Pkg.Imports() {
			for _, name := range imp.Scope().Names() {
				if tn, ok := imp.Scope().Lookup(name).(*types.TypeName); ok {
					u.collect(tn.Type(), seen)
				}
			}
		}
	}
	l.uses, l.usesOver = u, len(l.pkgs)
	return u
}

func (u *usage) use(obj types.Object) {
	switch o := obj.(type) {
	case *types.Func:
		obj = o.Origin()
	case *types.Var:
		obj = o.Origin()
	}
	u.used[obj] = true
}

// usePath marks the embedded fields a promoted selection walks through.
func (u *usage) usePath(sel *types.Selection) {
	t := sel.Recv()
	idx := sel.Index()
	for _, i := range idx[:len(idx)-1] {
		if p, ok := t.Underlying().(*types.Pointer); ok {
			t = p.Elem()
		}
		st, ok := t.Underlying().(*types.Struct)
		if !ok {
			return
		}
		u.use(st.Field(i))
		t = st.Field(i).Type()
	}
}

// collect records the interfaces t names or spells, following signatures,
// pointers and containers but not the fields or methods of named types.
func (u *usage) collect(t types.Type, seen map[types.Type]bool) {
	if t == nil || seen[t] {
		return
	}
	seen[t] = true
	switch t := t.(type) {
	case *types.Alias:
		u.collect(types.Unalias(t), seen)
	case *types.Named:
		if it, ok := t.Underlying().(*types.Interface); ok {
			u.collect(it, seen)
		}
		for i := range t.TypeArgs().Len() {
			u.collect(t.TypeArgs().At(i), seen)
		}
	case *types.Interface:
		if t.NumMethods() > 0 {
			u.ifaces = append(u.ifaces, t)
		}
	case *types.Signature:
		u.collect(t.Params(), seen)
		u.collect(t.Results(), seen)
	case *types.Tuple:
		for i := range t.Len() {
			u.collect(t.At(i).Type(), seen)
		}
	case *types.Struct:
		for i := range t.NumFields() {
			u.collect(t.Field(i).Type(), seen)
		}
	case *types.Map:
		u.collect(t.Key(), seen)
		u.collect(t.Elem(), seen)
	case interface{ Elem() types.Type }: // pointer, slice, array, chan
		u.collect(t.Elem(), seen)
	}
}
