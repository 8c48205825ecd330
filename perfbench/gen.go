package main

// Seeded input generators. They belong to the benchmark alone: nothing
// here imports the repository's own dataset or benchmark generators, so
// editing those never changes a workload.

import (
	"fmt"
	"math/rand"

	"probdedup"
)

// op is one workload operation: an insertion (x set) or a removal of
// an earlier arrival (remove set). dupOf names the resident an
// inserted near-duplicate copies.
type op struct {
	x      *probdedup.XTuple
	remove string
	dupOf  string
}

// corpus is one generated workload input: the residents seeded during
// set-up and the arrival stream applied afterwards.
type corpus struct {
	schema    []string
	residents []*probdedup.XTuple
	arrivals  []op
}

// ---- skewed corpus (serve_hot) ----

const (
	hotBlock    = 200
	coldBlock   = 16
	hotShare    = 0.5
	twoAltShare = 0.3
	nearDupFrac = 0.2
	residentDup = 0.02
)

// skewGen draws long random strings into hot and cold blocks.
type skewGen struct {
	rng *rand.Rand
}

func (g *skewGen) word() string {
	b := make([]byte, 36+g.rng.Intn(25))
	for i := range b {
		b[i] = byte('a' + g.rng.Intn(26))
	}
	return string(b)
}

// fresh builds a new tuple in block; 30% carry two alternatives with
// distinct names.
func (g *skewGen) fresh(id, block string) *probdedup.XTuple {
	name, job := g.word(), g.word()
	if g.rng.Float64() < twoAltShare {
		return probdedup.NewXTuple(id,
			probdedup.NewAlt(0.7, name, job, block),
			probdedup.NewAlt(0.3, g.word(), job, block))
	}
	return probdedup.NewXTuple(id, probdedup.NewAlt(1, name, job, block))
}

// nearDup copies every alternative of src under a new ID, with one
// substituted letter in the first alternative's name: same block, so
// the reduction pairs them and verification declares the pair.
func (g *skewGen) nearDup(id string, src *probdedup.XTuple) *probdedup.XTuple {
	alts := make([]probdedup.Alt, len(src.Alts))
	for i, a := range src.Alts {
		vals := make([]string, len(a.Values))
		for k, d := range a.Values {
			vals[k] = d.Alternatives()[0].Value.S()
		}
		if i == 0 {
			b := []byte(vals[0])
			pos := g.rng.Intn(len(b))
			b[pos] = byte('a' + (int(b[pos]-'a')+1+g.rng.Intn(25))%26)
			vals[0] = string(b)
		}
		alts[i] = probdedup.NewAlt(a.P, vals...)
	}
	return probdedup.NewXTuple(id, alts...)
}

// genSkewed builds n residents (half in hot blocks of ~200, the rest
// in cold blocks of 16, key "block:8") and the given number of
// arrivals, every one into a hot block; nearDupFrac of them duplicate
// a resident of that block.
func genSkewed(seed int64, n, arrivals int) corpus {
	g := &skewGen{rng: rand.New(rand.NewSource(seed))}
	nhot := int(float64(n) * hotShare)
	hotBlocks := max(1, nhot/hotBlock)
	c := corpus{schema: []string{"name", "job", "block"}}
	byBlock := make([][]*probdedup.XTuple, hotBlocks)
	for i := 0; i < n; i++ {
		var block string
		if i < nhot {
			block = fmt.Sprintf("h%07d", i/hotBlock%hotBlocks)
		} else {
			block = fmt.Sprintf("c%07d", (i-nhot)/coldBlock)
		}
		id := fmt.Sprintf("r%07d", i)
		var x *probdedup.XTuple
		if i > 0 && g.rng.Float64() < residentDup && c.residents[i-1].Alts[0].Values[2].Alternatives()[0].Value.S() == block {
			x = g.nearDup(id, c.residents[i-1])
		} else {
			x = g.fresh(id, block)
		}
		c.residents = append(c.residents, x)
		if i < nhot {
			b := i / hotBlock % hotBlocks
			byBlock[b] = append(byBlock[b], x)
		}
	}
	for i := 0; i < arrivals; i++ {
		b := g.rng.Intn(hotBlocks)
		id := fmt.Sprintf("a%07d", i)
		if g.rng.Float64() < nearDupFrac {
			src := byBlock[b][g.rng.Intn(len(byBlock[b]))]
			c.arrivals = append(c.arrivals, op{x: g.nearDup(id, src), dupOf: src.ID})
		} else {
			c.arrivals = append(c.arrivals, op{x: g.fresh(id, fmt.Sprintf("h%07d", b))})
		}
	}
	return c
}

// ---- realistic person corpus (serve_churn, bulk_load) ----

var (
	firstNames = []string{
		"anna", "anne", "andre", "ander", "bernd", "bert", "carla", "carl",
		"dieter", "dirk", "emma", "emil", "fabian", "fiona", "greta", "gerda",
		"hanna", "hans", "ingrid", "inga", "jan", "johan", "john", "karl",
		"karin", "laura", "lara", "maria", "marie", "moritz", "nora",
		"norbert", "otto", "olga", "paul", "paula", "peter", "petra",
		"rupert", "robert", "sven", "sara", "tim", "tom", "ulla", "uwe",
		"vera", "walter", "wilma", "yara",
	}
	lastSyllables = []string{
		"berg", "mann", "stein", "feld", "hof", "bach", "brand", "dorf",
		"hau", "kel", "lin", "mer", "ner", "rot", "sch", "tal", "wal",
		"zel", "kra", "bau", "mey", "schu", "weis", "fisch", "wag",
	}
	jobList = []string{
		"machinist", "mechanic", "baker", "confectioner", "pilot", "pianist",
		"musician", "engineer", "teacher", "doctor", "nurse", "astronomer",
		"carpenter", "gardener", "plumber", "painter", "printer", "writer",
		"waiter", "lawyer", "chemist", "farmer", "tailor", "butcher",
		"librarian", "architect", "electrician", "dentist", "surgeon",
		"clerk", "banker", "drover", "sailor", "fisher", "miller", "potter",
		"weaver", "glazier", "roofer", "welder",
	}
	cityList = []string{
		"hamburg", "homburg", "enschede", "eindhoven", "berlin", "bern",
		"munich", "muenster", "twente", "bremen", "dresden", "leiden",
		"leipzig", "utrecht", "ulm", "essen", "erfurt", "kassel", "kiel",
		"koblenz", "mainz", "mannheim", "potsdam", "rostock", "trier",
		"wiesbaden", "aachen", "bonn", "jena", "passau",
	}
)

// person is one real-world entity.
type person struct {
	name, job, city string
}

// personGen renders entities as noisy probabilistic x-tuples.
type personGen struct {
	rng *rand.Rand
}

func (g *personGen) entity() person {
	last := ""
	for k := 2 + g.rng.Intn(2); k > 0; k-- {
		last += lastSyllables[g.rng.Intn(len(lastSyllables))]
	}
	return person{
		name: firstNames[g.rng.Intn(len(firstNames))] + " " + last,
		job:  jobList[g.rng.Intn(len(jobList))],
		city: cityList[g.rng.Intn(len(cityList))],
	}
}

// typo applies one random edit: substitution, insertion, deletion or
// transposition.
func (g *personGen) typo(s string) string {
	b := []byte(s)
	if len(b) < 2 {
		return s + "x"
	}
	i := g.rng.Intn(len(b) - 1)
	c := byte('a' + g.rng.Intn(26))
	switch g.rng.Intn(4) {
	case 0:
		b[i] = c
	case 1:
		b = append(b[:i], append([]byte{c}, b[i:]...)...)
	case 2:
		b = append(b[:i], b[i+1:]...)
	default:
		b[i], b[i+1] = b[i+1], b[i]
	}
	return string(b)
}

// dist renders one attribute value: certain, or (30%) a distribution
// over the value and a typo or a domain neighbour, with ⊥ mass on 10%
// of values.
func (g *personGen) dist(v string, domain []string) probdedup.Dist {
	null := 0.0
	if g.rng.Float64() < 0.1 {
		null = 0.05 + 0.2*g.rng.Float64()
	}
	if g.rng.Float64() >= 0.3 {
		if null == 0 {
			return probdedup.Certain(v)
		}
		return probdedup.MustDist(probdedup.Alternative{Value: probdedup.V(v), P: 1 - null})
	}
	main := (1 - null) * (0.55 + 0.3*g.rng.Float64())
	other := g.typo(v)
	if domain != nil && g.rng.Intn(2) == 0 {
		if o := domain[g.rng.Intn(len(domain))]; o != v {
			other = o
		}
	}
	return probdedup.MustDist(
		probdedup.Alternative{Value: probdedup.V(v), P: main},
		probdedup.Alternative{Value: probdedup.V(other), P: 1 - null - main})
}

// render builds one representation of p; noisy representations carry
// typos, and 30% of all get a second, correlated alternative.
func (g *personGen) render(id string, p person, noisy bool) *probdedup.XTuple {
	vals := []string{p.name, p.job, p.city}
	if noisy {
		for i := range vals {
			if g.rng.Float64() < 0.3 {
				vals[i] = g.typo(vals[i])
			}
		}
	}
	domains := [][]string{nil, jobList, cityList}
	attrs := func(vs []string) []probdedup.Dist {
		out := make([]probdedup.Dist, len(vs))
		for i, v := range vs {
			out[i] = g.dist(v, domains[i])
		}
		return out
	}
	first := attrs(vals)
	if g.rng.Float64() >= twoAltShare {
		return probdedup.NewXTuple(id, probdedup.NewAltDists(1, first...))
	}
	alt := make([]string, len(vals))
	for i, v := range vals {
		alt[i] = v
		if g.rng.Intn(2) == 0 {
			alt[i] = g.typo(v)
		}
	}
	split := 0.55 + 0.3*g.rng.Float64()
	return probdedup.NewXTuple(id,
		probdedup.NewAltDists(split, first...),
		probdedup.NewAltDists(1-split, attrs(alt)...))
}

// personStream draws representations: each new entity appears once,
// and a share of draws are further (noisy) representations of an
// entity drawn before.
type personStream struct {
	g        personGen
	entities []person
	dupShare float64
}

func (s *personStream) next(id string) *probdedup.XTuple {
	if len(s.entities) > 0 && s.g.rng.Float64() < s.dupShare {
		return s.g.render(id, s.entities[s.g.rng.Intn(len(s.entities))], true)
	}
	p := s.g.entity()
	s.entities = append(s.entities, p)
	return s.g.render(id, p, false)
}

// genPersons builds n person residents and churned+inserted arrival
// operations: among the first churned, removeShare remove an earlier
// arrival still resident at that point of the schedule; the last
// inserted are insertions only.
func genPersons(seed int64, n, churned, inserted int, removeShare float64) corpus {
	s := &personStream{g: personGen{rng: rand.New(rand.NewSource(seed))}, dupShare: 0.35}
	c := corpus{schema: []string{"name", "job", "city"}}
	for i := 0; i < n; i++ {
		c.residents = append(c.residents, s.next(fmt.Sprintf("r%07d", i)))
	}
	var live []string
	for i := 0; i < churned+inserted; i++ {
		if i < churned && len(live) > 0 && s.g.rng.Float64() < removeShare {
			k := s.g.rng.Intn(len(live))
			c.arrivals = append(c.arrivals, op{remove: live[k]})
			live[k] = live[len(live)-1]
			live = live[:len(live)-1]
			continue
		}
		x := s.next(fmt.Sprintf("a%07d", i))
		live = append(live, x.ID)
		c.arrivals = append(c.arrivals, op{x: x})
	}
	return c
}

// survivors folds a prefix of the arrival schedule over the residents
// and returns the resident relation it leaves, in arrival order.
func survivors(c corpus, applied int, extra []*probdedup.XTuple) *probdedup.XRelation {
	gone := map[string]bool{}
	for _, o := range c.arrivals[:applied] {
		if o.remove != "" {
			gone[o.remove] = true
		}
	}
	xr := probdedup.NewXRelation("survivors", c.schema...)
	add := func(x *probdedup.XTuple) {
		if !gone[x.ID] {
			xr.Append(x)
		}
	}
	for _, x := range c.residents {
		add(x)
	}
	for _, o := range c.arrivals[:applied] {
		if o.x != nil {
			add(o.x)
		}
	}
	for _, x := range extra {
		add(x)
	}
	return xr
}
