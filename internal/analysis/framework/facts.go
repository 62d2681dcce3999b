package framework

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"go/types"
	"reflect"
)

// A Fact is a typed datum an analyzer attaches to a types.Object or a
// *types.Package while analyzing the defining package, for later retrieval
// when the same analyzer visits a downstream package. Facts are how the
// suite does modular cross-package analysis without whole-program loading:
// poolsafety marks pooled types where they are declared, lockorder exports
// each package's lock-ordering edges, and importing packages read the marks
// back through ImportObjectFact / ImportPackageFact.
//
// Fact types must be pointers to gob-serializable structs and must be
// listed in the owning Analyzer's FactTypes. The AFact method is a marker
// only; its body is empty.
type Fact interface {
	AFact()
}

// factKey identifies one fact slot: facts are keyed per analyzer, per
// object (or package), per concrete fact type — mirroring x/tools, where
// an analyzer can attach at most one fact of each type to each object.
type factKey struct {
	analyzer *Analyzer
	object   types.Object // nil for package facts
	pkg      *types.Package
	factType reflect.Type
}

// factStore holds every fact exported during one suite run. It is shared
// by all passes of the run so facts exported while analyzing an upstream
// package are visible when a downstream package is analyzed (LoadModule
// returns packages in dependency order, which makes this sound).
type factStore struct {
	m map[factKey]Fact
}

func newFactStore() *factStore {
	return &factStore{m: make(map[factKey]Fact)}
}

// validateFact checks the fact is a pointer type declared in the
// analyzer's FactTypes and survives a gob round trip. The round trip is
// what keeps facts serializable — the property a future export-data-based
// driver would rely on — and it is cheap enough to do on every export.
// The decoded copy is what gets stored, so any state that would not
// serialize is dropped at the boundary, never silently carried along.
func validateFact(a *Analyzer, fact Fact) (Fact, error) {
	t := reflect.TypeOf(fact)
	if t == nil || t.Kind() != reflect.Ptr {
		return nil, fmt.Errorf("analyzer %s: fact %T is not a pointer", a.Name, fact)
	}
	declared := false
	for _, ft := range a.FactTypes {
		if reflect.TypeOf(ft) == t {
			declared = true
			break
		}
	}
	if !declared {
		return nil, fmt.Errorf("analyzer %s: fact type %T not declared in FactTypes", a.Name, fact)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).EncodeValue(reflect.ValueOf(fact).Elem()); err != nil {
		return nil, fmt.Errorf("analyzer %s: fact %T does not gob-encode: %w", a.Name, fact, err)
	}
	out := reflect.New(t.Elem())
	if err := gob.NewDecoder(&buf).DecodeValue(out.Elem()); err != nil {
		return nil, fmt.Errorf("analyzer %s: fact %T does not gob-decode: %w", a.Name, fact, err)
	}
	return out.Interface().(Fact), nil
}

// ExportObjectFact associates fact with obj for the rest of the suite run.
// The object must belong to the package under analysis or one of its
// dependencies; exporting panics on a non-serializable or undeclared fact
// type because both are analyzer bugs, not input problems.
func (p *Pass) ExportObjectFact(obj types.Object, fact Fact) {
	if obj == nil {
		panic(fmt.Sprintf("analyzer %s: ExportObjectFact(nil)", p.Analyzer.Name))
	}
	stored, err := validateFact(p.Analyzer, fact)
	if err != nil {
		panic(err)
	}
	p.facts.m[factKey{analyzer: p.Analyzer, object: obj, factType: reflect.TypeOf(fact)}] = stored
}

// ImportObjectFact copies the fact previously exported for obj by this
// analyzer into *fact and reports whether one existed.
func (p *Pass) ImportObjectFact(obj types.Object, fact Fact) bool {
	if obj == nil {
		return false
	}
	got, ok := p.facts.m[factKey{analyzer: p.Analyzer, object: obj, factType: reflect.TypeOf(fact)}]
	if !ok {
		return false
	}
	reflect.ValueOf(fact).Elem().Set(reflect.ValueOf(got).Elem())
	return true
}

// ExportPackageFact associates fact with the package under analysis.
func (p *Pass) ExportPackageFact(fact Fact) {
	stored, err := validateFact(p.Analyzer, fact)
	if err != nil {
		panic(err)
	}
	p.facts.m[factKey{analyzer: p.Analyzer, pkg: p.Pkg, factType: reflect.TypeOf(fact)}] = stored
}

// ImportPackageFact copies the fact previously exported for pkg by this
// analyzer into *fact and reports whether one existed.
func (p *Pass) ImportPackageFact(pkg *types.Package, fact Fact) bool {
	if pkg == nil {
		return false
	}
	got, ok := p.facts.m[factKey{analyzer: p.Analyzer, pkg: pkg, factType: reflect.TypeOf(fact)}]
	if !ok {
		return false
	}
	reflect.ValueOf(fact).Elem().Set(reflect.ValueOf(got).Elem())
	return true
}
