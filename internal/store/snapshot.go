package store

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"sgmldb/internal/object"
)

// This file implements the instance codec: a database (schema + instance)
// is written to and read back from a stream. The write-ahead log's
// checkpoint format — the database's one on-disk image — embeds it. The
// encoding is a line-oriented text format with length-prefixed strings,
// so it is deterministic, diffable, and independent of Go's
// reflection-based serialisers (the model's values and types are
// interfaces with unexported structure).

const snapshotMagic = "sgmldb-snapshot 1"

// Save writes the snapshot of inst (schema and data) to w. Method bodies
// (μ) are code and are not serialised; they must be re-bound after Load.
// Every line is built in one reused buffer.
func Save(w io.Writer, inst *Instance) error {
	s := inst.Schema()
	b := make([]byte, 0, 256)
	b = append(b, snapshotMagic+"\n"...)
	if _, err := w.Write(b); err != nil {
		return err
	}
	write := func() error {
		b = append(b, '\n')
		_, err := w.Write(b)
		return err
	}
	for _, c := range s.Hierarchy().Classes() {
		t, _ := s.Hierarchy().TypeOf(c)
		b = appendString(append(b[:0], "class "...), c)
		b = appendType(append(b, ' '), t)
		if err := write(); err != nil {
			return err
		}
		for _, p := range s.Hierarchy().Parents(c) {
			b = appendString(append(b[:0], "inherits "...), c)
			b = appendString(append(b, ' '), p)
			if err := write(); err != nil {
				return err
			}
		}
		for _, con := range s.Constraints(c) {
			b = appendString(append(b[:0], "constraint "...), c)
			var err error
			if b, err = appendConstraint(append(b, ' '), con); err != nil {
				return err
			}
			if err := write(); err != nil {
				return err
			}
		}
	}
	// Private attributes.
	for _, c := range s.Hierarchy().Classes() {
		t, _ := s.Hierarchy().TypeOf(c)
		if tt, ok := t.(object.TupleType); ok {
			for _, f := range tt.Fields() {
				if s.IsPrivate(c, f.Name) {
					b = appendString(append(b[:0], "private "...), c)
					b = appendString(append(b, ' '), f.Name)
					if err := write(); err != nil {
						return err
					}
				}
			}
		}
	}
	for _, m := range s.Methods() {
		b = appendString(append(b[:0], "method "...), m.Class)
		b = appendString(append(b, ' '), m.Name)
		b = strconv.AppendInt(append(b, ' '), int64(len(m.Params)), 10)
		for _, p := range m.Params {
			b = appendType(append(b, ' '), p)
		}
		b = append(b, ' ')
		if m.Result != nil {
			b = appendType(b, m.Result)
		} else {
			b = append(b, '-')
		}
		if err := write(); err != nil {
			return err
		}
	}
	for _, g := range s.Roots() {
		t, _ := s.RootType(g)
		b = appendString(append(b[:0], "rootdecl "...), g)
		b = appendType(append(b, ' '), t)
		if err := write(); err != nil {
			return err
		}
	}
	// Data: objects then roots.
	var err error
	inst.eachObject(func(o object.OID, c string, v object.Value) {
		if err != nil {
			return
		}
		b = strconv.AppendUint(append(b[:0], "object "...), uint64(o), 10)
		b = appendString(append(b, ' '), c)
		b = appendValue(append(b, ' '), v)
		err = write()
	})
	if err != nil {
		return err
	}
	for _, g := range s.Roots() {
		v, ok := inst.Root(g)
		if !ok {
			continue
		}
		b = appendString(append(b[:0], "rootval "...), g)
		b = appendValue(append(b, ' '), v)
		if err := write(); err != nil {
			return err
		}
	}
	_, err = io.WriteString(w, "end\n")
	return err
}

// Load reads a snapshot written by Save.
func Load(r io.Reader) (*Instance, error) {
	br := bufio.NewReader(r)
	line, err := readLine(br)
	if err != nil {
		return nil, err
	}
	if line != snapshotMagic {
		return nil, fmt.Errorf("store: not a snapshot file (got %q)", line)
	}
	schema := NewSchema()
	inst := NewInstance(schema)
	for {
		line, err := readLine(br)
		if err == io.EOF {
			return nil, fmt.Errorf("store: truncated snapshot (missing end)")
		}
		if err != nil {
			return nil, err
		}
		if line == "end" {
			break
		}
		verb, rest, _ := strings.Cut(line, " ")
		p := &parser{s: rest}
		switch verb {
		case "class":
			name := p.str()
			p.space()
			t := p.typ()
			if p.err != nil {
				return nil, fmt.Errorf("store: bad class line: %w", p.err)
			}
			if err := schema.AddClass(name, t); err != nil {
				return nil, err
			}
		case "inherits":
			c := p.str()
			p.space()
			sup := p.str()
			if p.err != nil {
				return nil, fmt.Errorf("store: bad inherits line: %w", p.err)
			}
			if err := schema.AddInherits(c, sup); err != nil {
				return nil, err
			}
		case "constraint":
			c := p.str()
			p.space()
			con := p.constraint()
			if p.err != nil {
				return nil, fmt.Errorf("store: bad constraint line: %w", p.err)
			}
			if err := schema.AddConstraint(c, con); err != nil {
				return nil, err
			}
		case "private":
			c := p.str()
			p.space()
			a := p.str()
			if p.err != nil {
				return nil, fmt.Errorf("store: bad private line: %w", p.err)
			}
			if err := schema.MarkPrivate(c, a); err != nil {
				return nil, err
			}
		case "method":
			c := p.str()
			p.space()
			name := p.str()
			p.space()
			n := p.int()
			params := make([]object.Type, n)
			for i := 0; i < n; i++ {
				p.space()
				params[i] = p.typ()
			}
			p.space()
			var result object.Type
			if !p.lit("-") {
				result = p.typ()
			}
			if p.err != nil {
				return nil, fmt.Errorf("store: bad method line: %w", p.err)
			}
			if err := schema.AddMethod(MethodSig{Class: c, Name: name, Params: params, Result: result}); err != nil {
				return nil, err
			}
		case "rootdecl":
			g := p.str()
			p.space()
			t := p.typ()
			if p.err != nil {
				return nil, fmt.Errorf("store: bad rootdecl line: %w", p.err)
			}
			if err := schema.AddRoot(g, t); err != nil {
				return nil, err
			}
		case "object":
			idStr, rest2, ok := strings.Cut(rest, " ")
			if !ok {
				return nil, fmt.Errorf("store: bad object line %q", line)
			}
			id, err := strconv.ParseUint(idStr, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("store: bad oid %q", idStr)
			}
			p = &parser{s: rest2}
			c := p.str()
			p.space()
			v := p.value()
			if p.err != nil {
				return nil, fmt.Errorf("store: bad object line: %w", p.err)
			}
			// Oids are dense and Save writes them ascending.
			o := object.OID(id)
			if o != inst.nextID {
				return nil, fmt.Errorf("store: object %s out of sequence (want %s)", o, inst.nextID)
			}
			inst.create(o, c, v)
			inst.nextID++
		case "rootval":
			g := p.str()
			p.space()
			v := p.value()
			if p.err != nil {
				return nil, fmt.Errorf("store: bad rootval line: %w", p.err)
			}
			if err := inst.SetRoot(g, v); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("store: unknown snapshot verb %q", verb)
		}
	}
	if err := schema.Check(); err != nil {
		return nil, err
	}
	return inst, nil
}

func readLine(r *bufio.Reader) (string, error) {
	line, err := r.ReadString('\n')
	if err == io.EOF && line != "" {
		return strings.TrimRight(line, "\n"), nil
	}
	if err != nil {
		return "", err
	}
	return strings.TrimRight(line, "\n"), nil
}

// appendString appends a length-prefixed string: <len>:<bytes>.
func appendString(b []byte, s string) []byte {
	b = strconv.AppendInt(b, int64(len(s)), 10)
	b = append(b, ':')
	return append(b, s...)
}

// appendType appends a parseable type encoding.
func appendType(b []byte, t object.Type) []byte {
	switch ty := t.(type) {
	case object.AtomicType:
		switch ty.K {
		case object.TypeInt:
			b = append(b, "ti"...)
		case object.TypeFloat:
			b = append(b, "tf"...)
		case object.TypeString:
			b = append(b, "ts"...)
		case object.TypeBool:
			b = append(b, "tb"...)
		default:
			// non-atomic kinds never label an AtomicType
		}
	case object.AnyType:
		b = append(b, "ta"...)
	case object.ClassType:
		b = append(b, "tc"...)
		b = appendString(b, ty.Name)
	case object.ListType:
		b = append(b, "tl"...)
		b = appendType(b, ty.Elem)
	case object.SetType:
		b = append(b, "tS"...)
		b = appendType(b, ty.Elem)
	case object.TupleType:
		b = append(b, "tt"...)
		b = strconv.AppendInt(b, int64(ty.Len()), 10)
		b = append(b, '{')
		for _, f := range ty.Fields() {
			b = appendString(b, f.Name)
			b = appendType(b, f.Type)
		}
		b = append(b, '}')
	case object.UnionType:
		b = append(b, "tu"...)
		b = strconv.AppendInt(b, int64(ty.Len()), 10)
		b = append(b, '{')
		for _, a := range ty.Alts() {
			b = appendString(b, a.Name)
			b = appendType(b, a.Type)
		}
		b = append(b, '}')
	default:
		//lint:allow panic unreachable: the switch covers the closed object.Type set (enforced by sgmldbvet exhaustive)
		panic(fmt.Sprintf("store: cannot encode type %T", t))
	}
	return b
}

// appendValue appends a parseable value encoding.
func appendValue(b []byte, v object.Value) []byte {
	switch x := v.(type) {
	case nil, object.Nil:
		b = append(b, "vn"...)
	case object.Int:
		b = append(b, "vi"...)
		b = strconv.AppendInt(b, int64(x), 10)
		b = append(b, ';')
	case object.Float:
		b = append(b, "vf"...)
		b = strconv.AppendUint(b, math.Float64bits(float64(x)), 16)
		b = append(b, ';')
	case object.String_:
		b = append(b, "vs"...)
		b = appendString(b, string(x))
	case object.Bool:
		if x {
			b = append(b, "vT"...)
		} else {
			b = append(b, "vF"...)
		}
	case object.OID:
		b = append(b, "vo"...)
		b = strconv.AppendUint(b, uint64(x), 10)
		b = append(b, ';')
	case *object.Tuple:
		b = append(b, "vt"...)
		b = strconv.AppendInt(b, int64(x.Len()), 10)
		b = append(b, '{')
		for i := 0; i < x.Len(); i++ {
			f := x.At(i)
			b = appendString(b, f.Name)
			b = appendValue(b, f.Value)
		}
		b = append(b, '}')
	case *object.List:
		b = append(b, "vl"...)
		b = strconv.AppendInt(b, int64(x.Len()), 10)
		b = append(b, '{')
		for i := 0; i < x.Len(); i++ {
			b = appendValue(b, x.At(i))
		}
		b = append(b, '}')
	case *object.Set:
		b = append(b, "vS"...)
		b = strconv.AppendInt(b, int64(x.Len()), 10)
		b = append(b, '{')
		for i := 0; i < x.Len(); i++ {
			b = appendValue(b, x.At(i))
		}
		b = append(b, '}')
	case *object.Union_:
		b = append(b, "vu"...)
		b = appendString(b, x.Marker)
		b = appendValue(b, x.Value)
	default:
		//lint:allow panic unreachable: the switch covers the closed object.Value set (enforced by sgmldbvet exhaustive)
		panic(fmt.Sprintf("store: cannot encode value %T", v))
	}
	return b
}

// appendConstraint appends a parseable constraint encoding.
func appendConstraint(b []byte, c Constraint) ([]byte, error) {
	switch con := c.(type) {
	case NotNil:
		b = append(b, "cn"...)
		b = appendString(b, con.Attr)
	case NotEmptyList:
		b = append(b, "ce"...)
		b = appendString(b, con.Attr)
	case InSet:
		b = append(b, "cs"...)
		b = appendString(b, con.Attr)
		b = strconv.AppendInt(b, int64(len(con.Values)), 10)
		b = append(b, '{')
		for _, v := range con.Values {
			b = appendValue(b, v)
		}
		b = append(b, '}')
	case OnAlt:
		b = append(b, "ca"...)
		b = appendString(b, con.Marker)
		b = strconv.AppendInt(b, int64(len(con.Inner)), 10)
		b = append(b, '{')
		for _, inner := range con.Inner {
			var err error
			if b, err = appendConstraint(b, inner); err != nil {
				return nil, err
			}
		}
		b = append(b, '}')
	case AnyOf:
		b = append(b, "co"...)
		b = strconv.AppendInt(b, int64(len(con.Alts)), 10)
		b = append(b, '{')
		for _, a := range con.Alts {
			var err error
			if b, err = appendConstraint(b, a); err != nil {
				return nil, err
			}
		}
		b = append(b, '}')
	default:
		return nil, fmt.Errorf("store: cannot encode constraint %T", c)
	}
	return b, nil
}

// parser decodes the encodings above.
type parser struct {
	s   string
	pos int
	err error
}

func (p *parser) fail(format string, args ...any) {
	if p.err == nil {
		p.err = fmt.Errorf(format+" at %d in %q", append(args, p.pos, p.s)...)
	}
}

func (p *parser) byte() byte {
	if p.err != nil {
		return 0
	}
	if p.pos >= len(p.s) {
		p.fail("unexpected end")
		return 0
	}
	c := p.s[p.pos]
	p.pos++
	return c
}

func (p *parser) lit(s string) bool {
	if p.err != nil {
		return false
	}
	if strings.HasPrefix(p.s[p.pos:], s) {
		p.pos += len(s)
		return true
	}
	return false
}

func (p *parser) space() {
	if !p.lit(" ") {
		p.fail("expected space")
	}
}

func (p *parser) int() int {
	if p.err != nil {
		return 0
	}
	start := p.pos
	if p.pos < len(p.s) && (p.s[p.pos] == '-' || p.s[p.pos] == '+') {
		p.pos++
	}
	for p.pos < len(p.s) && p.s[p.pos] >= '0' && p.s[p.pos] <= '9' {
		p.pos++
	}
	n, err := strconv.Atoi(p.s[start:p.pos])
	if err != nil {
		p.fail("bad integer")
		return 0
	}
	return n
}

// str reads a length-prefixed string <len>:<bytes>.
func (p *parser) str() string {
	n := p.int()
	if p.err != nil {
		return ""
	}
	if !p.lit(":") {
		p.fail("expected ':' after string length")
		return ""
	}
	if p.pos+n > len(p.s) {
		p.fail("string overruns input")
		return ""
	}
	s := p.s[p.pos : p.pos+n]
	p.pos += n
	return s
}

func (p *parser) typ() object.Type {
	if !p.lit("t") {
		p.fail("expected type")
		return nil
	}
	switch c := p.byte(); c {
	case 'i':
		return object.IntType
	case 'f':
		return object.FloatType
	case 's':
		return object.StringType
	case 'b':
		return object.BoolType
	case 'a':
		return object.Any
	case 'c':
		return object.Class(p.str())
	case 'l':
		return object.ListOf(p.typ())
	case 'S':
		return object.SetOf(p.typ())
	case 't':
		n := p.int()
		if !p.lit("{") {
			p.fail("expected '{'")
			return nil
		}
		fs := make([]object.TField, n)
		for i := 0; i < n; i++ {
			fs[i] = object.TField{Name: p.str(), Type: p.typ()}
		}
		if !p.lit("}") {
			p.fail("expected '}'")
			return nil
		}
		if p.err != nil {
			return nil
		}
		return object.TupleOf(fs...)
	case 'u':
		n := p.int()
		if !p.lit("{") {
			p.fail("expected '{'")
			return nil
		}
		as := make([]object.TField, n)
		for i := 0; i < n; i++ {
			as[i] = object.TField{Name: p.str(), Type: p.typ()}
		}
		if !p.lit("}") {
			p.fail("expected '}'")
			return nil
		}
		if p.err != nil {
			return nil
		}
		return object.UnionOf(as...)
	default:
		p.fail("unknown type tag %q", string(c))
		return nil
	}
}

func (p *parser) value() object.Value {
	if !p.lit("v") {
		p.fail("expected value")
		return object.Nil{}
	}
	switch c := p.byte(); c {
	case 'n':
		return object.Nil{}
	case 'i':
		n := p.int()
		if !p.lit(";") {
			p.fail("expected ';'")
		}
		return object.Int(n)
	case 'f':
		start := p.pos
		for p.pos < len(p.s) && p.s[p.pos] != ';' {
			p.pos++
		}
		bits, err := strconv.ParseUint(p.s[start:p.pos], 16, 64)
		if err != nil {
			p.fail("bad float bits")
			return object.Nil{}
		}
		p.lit(";")
		return object.Float(math.Float64frombits(bits))
	case 's':
		return object.String_(p.str())
	case 'T':
		return object.Bool(true)
	case 'F':
		return object.Bool(false)
	case 'o':
		n := p.int()
		if !p.lit(";") {
			p.fail("expected ';'")
		}
		return object.OID(uint64(n))
	case 't':
		n := p.int()
		if !p.lit("{") {
			p.fail("expected '{'")
			return object.Nil{}
		}
		fs := make([]object.Field, n)
		for i := 0; i < n; i++ {
			fs[i] = object.Field{Name: p.str(), Value: p.value()}
		}
		if !p.lit("}") {
			p.fail("expected '}'")
			return object.Nil{}
		}
		if p.err != nil {
			return object.Nil{}
		}
		return object.NewTuple(fs...)
	case 'l':
		n := p.int()
		if !p.lit("{") {
			p.fail("expected '{'")
			return object.Nil{}
		}
		es := make([]object.Value, n)
		for i := 0; i < n; i++ {
			es[i] = p.value()
		}
		if !p.lit("}") {
			p.fail("expected '}'")
			return object.Nil{}
		}
		return object.NewList(es...)
	case 'S':
		n := p.int()
		if !p.lit("{") {
			p.fail("expected '{'")
			return object.Nil{}
		}
		es := make([]object.Value, n)
		for i := 0; i < n; i++ {
			es[i] = p.value()
		}
		if !p.lit("}") {
			p.fail("expected '}'")
			return object.Nil{}
		}
		return object.NewSet(es...)
	case 'u':
		m := p.str()
		return object.NewUnion(m, p.value())
	default:
		p.fail("unknown value tag %q", string(c))
		return object.Nil{}
	}
}

func (p *parser) constraint() Constraint {
	if !p.lit("c") {
		p.fail("expected constraint")
		return nil
	}
	switch c := p.byte(); c {
	case 'n':
		return NotNil{Attr: p.str()}
	case 'e':
		return NotEmptyList{Attr: p.str()}
	case 's':
		attr := p.str()
		n := p.int()
		if !p.lit("{") {
			p.fail("expected '{'")
			return nil
		}
		vs := make([]object.Value, n)
		for i := 0; i < n; i++ {
			vs[i] = p.value()
		}
		if !p.lit("}") {
			p.fail("expected '}'")
			return nil
		}
		return InSet{Attr: attr, Values: vs}
	case 'a':
		m := p.str()
		n := p.int()
		if !p.lit("{") {
			p.fail("expected '{'")
			return nil
		}
		inner := make([]Constraint, n)
		for i := 0; i < n; i++ {
			inner[i] = p.constraint()
		}
		if !p.lit("}") {
			p.fail("expected '}'")
			return nil
		}
		return OnAlt{Marker: m, Inner: inner}
	case 'o':
		n := p.int()
		if !p.lit("{") {
			p.fail("expected '{'")
			return nil
		}
		alts := make([]Constraint, n)
		for i := 0; i < n; i++ {
			alts[i] = p.constraint()
		}
		if !p.lit("}") {
			p.fail("expected '}'")
			return nil
		}
		return AnyOf{Alts: alts}
	default:
		p.fail("unknown constraint tag %q", string(c))
		return nil
	}
}
