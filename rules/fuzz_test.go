package rules

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"dbtrules/arm"
	"dbtrules/x86"
)

// genGuestBlock emits a random straight-line guest sequence covering the
// operand shapes Match distinguishes: immediate/register/shifted second
// operands, S-variants, predication, compares, mul/mla, and every memory
// addressing form.
func genGuestBlock(r *rand.Rand, n int) []arm.Instr {
	reg := func() int { return r.Intn(11) }
	op2 := func() string {
		switch r.Intn(4) {
		case 0:
			return fmt.Sprintf("#%d", r.Intn(64))
		case 1:
			return fmt.Sprintf("r%d", reg())
		default:
			kind := []string{"lsl", "lsr", "asr", "ror"}[r.Intn(4)]
			return fmt.Sprintf("r%d, %s #%d", reg(), kind, 1+r.Intn(31))
		}
	}
	var code []arm.Instr
	for len(code) < n {
		var line string
		switch r.Intn(10) {
		case 0, 1, 2:
			op := []string{"add", "sub", "rsb", "and", "orr", "eor", "bic", "adc", "sbc"}[r.Intn(9)]
			s := []string{"", "s"}[r.Intn(2)]
			line = fmt.Sprintf("%s%s r%d, r%d, %s", op, s, reg(), reg(), op2())
		case 3:
			op := []string{"mov", "mvn"}[r.Intn(2)]
			cond := []string{"", "eq", "ne", "cs", "ge", "lt"}[r.Intn(6)]
			line = fmt.Sprintf("%s%s r%d, %s", op, cond, reg(), op2())
		case 4:
			op := []string{"cmp", "cmn", "tst", "teq"}[r.Intn(4)]
			line = fmt.Sprintf("%s r%d, %s", op, reg(), op2())
		case 5:
			if r.Intn(2) == 0 {
				line = fmt.Sprintf("mul r%d, r%d, r%d", reg(), reg(), reg())
			} else {
				line = fmt.Sprintf("mla r%d, r%d, r%d, r%d", reg(), reg(), reg(), reg())
			}
		case 6, 7:
			op := []string{"ldr", "ldrb", "str", "strb"}[r.Intn(4)]
			switch r.Intn(3) {
			case 0:
				line = fmt.Sprintf("%s r%d, [r%d, #%d]", op, reg(), reg(), r.Intn(16)*4)
			case 1:
				line = fmt.Sprintf("%s r%d, [r%d, r%d]", op, reg(), reg(), reg())
			default:
				line = fmt.Sprintf("%s r%d, [r%d, r%d, lsl #%d]", op, reg(), reg(), reg(), 1+r.Intn(3))
			}
		case 8:
			cond := []string{"", "eq", "ne", "hi", "le"}[r.Intn(5)]
			line = fmt.Sprintf("b%s %d", cond, r.Intn(n))
		default:
			line = fmt.Sprintf("mov r%d, #%d", reg(), r.Intn(256))
		}
		code = append(code, arm.MustParse(line))
	}
	return code
}

// parameterize turns a concrete guest window into a rule pattern exactly
// the way Match expects: register fields are renumbered by first
// appearance over the fields Match binds, and (optionally) immediates
// become immediate parameters. The host side is matching-irrelevant
// filler whose length drives the §6.1 fewest-host-instructions dedup.
func parameterize(window []arm.Instr, hostLen, id int, immParams bool) (*Rule, bool) {
	pat := make([]arm.Instr, len(window))
	regParam := map[arm.Reg]int{}
	param := func(g arm.Reg) arm.Reg {
		p, ok := regParam[g]
		if !ok {
			p = len(regParam)
			regParam[g] = p
		}
		return arm.Reg(p)
	}
	var guestImms []GuestImmSlot
	nImm := 0
	for i, in := range window {
		switch in.Op {
		case arm.BL, arm.BX, arm.PUSH, arm.POP:
			return nil, false // never in rules
		}
		p := in
		if in.Op == arm.B {
			pat[i] = p
			continue
		}
		if in.Op != arm.CMP && in.Op != arm.CMN && in.Op != arm.TST && in.Op != arm.TEQ {
			p.Rd = param(in.Rd)
		}
		if !(in.Op == arm.MOV || in.Op == arm.MVN || in.Op.IsMemory()) {
			p.Rn = param(in.Rn)
		}
		if in.Op == arm.MLA {
			p.Ra = param(in.Ra)
		}
		if in.Op.IsMemory() {
			p.Mem.Base = param(in.Mem.Base)
			if in.Mem.HasIndex {
				p.Mem.Index = param(in.Mem.Index)
			}
			if immParams {
				guestImms = append(guestImms, GuestImmSlot{Instr: i, Field: GuestMemImm, Param: nImm})
				p.Mem.Imm = 0
				nImm++
			}
		} else if in.Op != arm.MUL && in.Op != arm.MLA {
			if in.Op2.IsImm {
				if immParams {
					guestImms = append(guestImms, GuestImmSlot{Instr: i, Field: GuestOp2Imm, Param: nImm})
					p.Op2.Imm = 0
					nImm++
				}
			} else {
				p.Op2.Reg = param(in.Op2.Reg)
			}
		} else {
			p.Op2.Reg = param(in.Op2.Reg)
		}
		pat[i] = p
	}
	host := make([]x86.Instr, hostLen)
	for i := range host {
		host[i] = x86.Instr{Op: x86.MOV, Src: x86.RegOp(x86.EAX), Dst: x86.RegOp(x86.EAX)}
	}
	return &Rule{
		ID: id, Guest: pat, Host: host,
		NumRegParams: len(regParam), NumImmParams: nImm,
		GuestImms: guestImms,
		Source:    fmt.Sprintf("fuzz:%d", id),
	}, true
}

// buildRandomStore installs rules parameterized from random sub-windows
// of block (so lookups really hit) and of decoy (bucket noise). With batch
// set the same rules go in through one AddAll call instead of one Add
// each; the store must come out the same either way.
func buildRandomStore(r *rand.Rand, block, decoy []arm.Instr, batch bool, nRules int) *Store {
	s := NewStore()
	var list []*Rule
	id := 1
	for tries := 0; tries < 400 && s.Count() < nRules; tries++ {
		src := block
		if r.Intn(3) == 0 {
			src = decoy
		}
		l := 1 + r.Intn(5)
		if l > len(src) {
			continue
		}
		i := r.Intn(len(src) - l + 1)
		rule, ok := parameterize(src[i:i+l], 1+r.Intn(4), id, r.Intn(2) == 0)
		if !ok {
			continue
		}
		s.Add(rule)
		list = append(list, rule)
		id++
	}
	if batch {
		s = NewStore()
		s.AddAll(list)
	}
	return s
}

// matchResult flattens one lookup outcome for comparison.
type matchResult struct {
	rule *Rule
	b    *Binding
	l    int
	ok   bool
}

func sameMatch(a, b matchResult) bool {
	return a.rule == b.rule && a.l == b.l && a.ok == b.ok && reflect.DeepEqual(a.b, b.b)
}

// checkIndexAgainstOracle asserts, at every position of block, that the
// frozen Index returns byte-identical results to the naive oracle in both
// its coarse (§4) and fine (§7) modes — same rule, same binding — for
// exact Lookup at every window length 1..6, and for the engine's
// longest-first and shortest-first probe orders.
func checkIndexAgainstOracle(t *testing.T, s *Store, ix *Index, block []arm.Instr) {
	t.Helper()
	modes := []oracle{{s: s}, {s: s, fine: true}}
	for i := range block {
		for l := 1; l <= 6 && i+l <= len(block); l++ {
			window := block[i : i+l]
			xr, xb, xok := ix.Lookup(window)
			got := matchResult{xr, xb, l, xok}
			for _, o := range modes {
				or, ob, ook := o.lookup(window)
				if want := (matchResult{or, ob, l, ook}); !sameMatch(got, want) {
					t.Fatalf("pos %d len %d: Index.Lookup %+v, oracle (fine=%v) %+v", i, l, got, o.fine, want)
				}
			}
		}
		for _, shortest := range []bool{false, true} {
			got := probe(ix.Lookup, ix.MaxLen(), block, i, shortest)
			for _, o := range modes {
				if want := probe(o.lookup, s.MaxLen(), block, i, shortest); !sameMatch(got, want) {
					t.Fatalf("pos %d shortest=%v: Index probe %+v, oracle (fine=%v) %+v",
						i, shortest, got, o.fine, want)
				}
			}
		}
	}
}

// runIndexDifferential is the body shared by the deterministic test and
// the native fuzz target.
func runIndexDifferential(t *testing.T, seed int64, batch bool, nRules int) {
	r := rand.New(rand.NewSource(seed))
	block := genGuestBlock(r, 24+r.Intn(40))
	decoy := genGuestBlock(r, 24)
	s := buildRandomStore(r, block, decoy, batch, nRules)
	if err := s.CheckInvariants(); err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	check := func() {
		ix := s.Freeze()
		if ix.Count() != s.Count() || ix.MaxLen() != s.MaxLen() || ix.Version() != s.Version() {
			t.Fatalf("seed %d: snapshot metadata %d/%d/%d, store %d/%d/%d", seed,
				ix.Count(), ix.MaxLen(), ix.Version(), s.Count(), s.MaxLen(), s.Version())
		}
		checkIndexAgainstOracle(t, s, ix, block)
		checkIndexAgainstOracle(t, s, ix, decoy)
	}
	check()
	// Pull about half the rules, by Quarantine and by Remove, then hold
	// the refrozen index to the oracle again: removals must drop exactly
	// their victims and recompute MaxLen.
	for _, rule := range s.All() {
		switch r.Intn(4) {
		case 0:
			s.Quarantine(rule.ID)
		case 1:
			s.Remove(rule.ID)
		}
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatalf("seed %d after removals: %v", seed, err)
	}
	check()
}

// FuzzIndexMatchesStore is the differential fuzz target behind the CI
// fuzz-smoke stage: for random rule sets over random guest blocks, the
// frozen Index must return byte-identical results to the naive oracle in
// both its coarse and fine (§7 hierarchical) modes — same rule, same
// binding, same length — for exact Lookup and for the engine's
// longest-first and shortest-first probes, whether the rules were
// installed one Add at a time or in one AddAll batch, and again after
// Quarantine and Remove have pulled some of them.
func FuzzIndexMatchesStore(f *testing.F) {
	for _, seed := range []int64{1, 7, 20260805} {
		f.Add(seed, false, uint8(12))
		f.Add(seed, true, uint8(20))
	}
	f.Fuzz(func(t *testing.T, seed int64, batch bool, nRules uint8) {
		runIndexDifferential(t, seed, batch, int(nRules)%28+4)
	})
}
