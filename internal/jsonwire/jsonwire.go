// Package jsonwire is the reflection-free JSON lexer behind the serving
// path's codecs: internal/trace's Document and internal/service's reply
// envelope and session chunks. A Decoder walks one JSON text in a single
// pass and hands its caller tokens under encoding/json's rules, so a
// decoder written on it accepts, and produces, exactly what
// encoding/json.Unmarshal would:
//
//   - the grammar encoding/json's scanner checks, nesting depth included;
//   - string unquoting: \u escapes and surrogate pairs, with invalid UTF-8
//     and lone surrogates becoming U+FFFD;
//   - struct-field matching (Fields): an exact key, else encoding/json's
//     case-insensitive fold, under which K (U+212A) matches k and ſ
//     (U+017F) matches s;
//   - ints: a number decodes into an int only without fraction or
//     exponent and within range;
//   - null: a no-op for strings, numbers, booleans and structs, nil for
//     slices (Slice) and pointers.
package jsonwire

import (
	"fmt"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// maxDepth is encoding/json's nesting limit: a text that opens more than
// this many objects and arrays at once is a syntax error.
const maxDepth = 10000

// Decoder is a cursor over one JSON text.
type Decoder struct {
	data  []byte
	pos   int
	depth int
	buf   []byte // the last unquoted string that needed rewriting
}

// NewDecoder returns a decoder positioned at the start of data.
func NewDecoder(data []byte) Decoder { return Decoder{data: data} }

// Mark is a decoder position Rewind can return to.
type Mark struct{ pos, depth int }

// Mark returns the position of the next value, whitespace skipped.
func (d *Decoder) Mark() Mark {
	d.peek()
	return Mark{d.pos, d.depth}
}

// Rewind returns to a Mark.
func (d *Decoder) Rewind(m Mark) { d.pos, d.depth = m.pos, m.depth }

// Since returns the bytes consumed after a Mark, capped so an append to
// them cannot write into the rest of the text.
func (d *Decoder) Since(m Mark) []byte { return d.data[m.pos:d.pos:d.pos] }

func (d *Decoder) errorf(format string, args ...any) error {
	return fmt.Errorf("json: "+format+" at offset %d", append(args, d.pos)...)
}

// isSpace reports whether c is JSON whitespace.
func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

// peek skips whitespace and returns the next byte, 0 at the end.
func (d *Decoder) peek() byte {
	if d.pos < len(d.data) && d.data[d.pos] > ' ' { // every space is <= ' '
		return d.data[d.pos]
	}
	for d.pos < len(d.data) {
		if c := d.data[d.pos]; !isSpace(c) {
			return c
		}
		d.pos++
	}
	return 0
}

// End checks that nothing but whitespace follows the value just read.
func (d *Decoder) End() error {
	if d.peek(); d.pos != len(d.data) {
		return d.errorf("data after the top-level value")
	}
	return nil
}

// literal consumes word if the text continues with it.
func (d *Decoder) literal(word string) bool {
	if len(d.data)-d.pos >= len(word) && string(d.data[d.pos:d.pos+len(word)]) == word {
		d.pos += len(word)
		return true
	}
	return false
}

// Null consumes a null if the next value is one.
func (d *Decoder) Null() bool {
	return d.peek() == 'n' && d.literal("null")
}

// open consumes the bracket that opens an object or array.
func (d *Decoder) open(c byte, what string) error {
	if d.peek() != c {
		return d.errorf("expected %s", what)
	}
	if d.depth++; d.depth > maxDepth {
		return d.errorf("exceeded max depth")
	}
	d.pos++
	return nil
}

// Object consumes the { that opens an object; Member then walks it.
func (d *Decoder) Object() error { return d.open('{', "object") }

// Array consumes the [ that opens an array; Elem then walks it.
func (d *Decoder) Array() error { return d.open('[', "array") }

// Member advances to the n-th member (from 0) of the object being walked:
// it returns the member's unquoted key, valid until the next string is
// read, with the decoder at its value, which the caller must consume. At
// the closing } it returns ok false.
func (d *Decoder) Member(n int) (key []byte, ok bool, err error) {
	c := d.peek()
	if c == '}' {
		d.pos++
		d.depth--
		return nil, false, nil
	}
	if n > 0 {
		if c != ',' {
			return nil, false, d.errorf("expected , or } after object member")
		}
		d.pos++
	}
	if key, err = d.str(); err != nil {
		return nil, false, err
	}
	if d.peek() != ':' {
		return nil, false, d.errorf("expected : after object key")
	}
	d.pos++
	return key, true, nil
}

// Elem advances to the n-th element (from 0) of the array being walked,
// which the caller must then consume. At the closing ] it returns false.
func (d *Decoder) Elem(n int) (bool, error) {
	c := d.peek()
	if c == ']' {
		d.pos++
		d.depth--
		return false, nil
	}
	if n > 0 {
		if c != ',' {
			return false, d.errorf("expected , or ] after array element")
		}
		d.pos++
	}
	return true, nil
}

// boolean reads true or false.
func (d *Decoder) boolean() (bool, error) {
	switch d.peek() {
	case 't':
		if d.literal("true") {
			return true, nil
		}
	case 'f':
		if d.literal("false") {
			return false, nil
		}
	}
	return false, d.errorf("expected a boolean")
}

// Int reads a number that fits an int and has no fraction or exponent.
func (d *Decoder) Int() (int, error) {
	d.peek()
	i, neg := d.pos, false
	if i < len(d.data) && d.data[i] == '-' {
		neg = true
		i++
	}
	start := i
	var u uint64
	for ; i < len(d.data); i++ {
		c := d.data[i] - '0'
		if c > 9 {
			break
		}
		u = u*10 + uint64(c) // wraps only past 19 digits, rejected below
	}
	switch digits := i - start; {
	case digits == 0:
		return 0, d.errorf("expected an integer")
	case d.data[start] == '0' && digits > 1:
		return 0, d.errorf("integer with a leading zero")
	case i < len(d.data) && (d.data[i] == '.' || d.data[i] == 'e' || d.data[i] == 'E'):
		return 0, d.errorf("number is not an integer")
	case digits > 19 || u > 1<<63 || u == 1<<63 && !neg:
		return 0, d.errorf("integer out of range")
	}
	d.pos = i
	if neg {
		return int(-u), nil
	}
	return int(u), nil
}

// str reads a string and returns it unquoted. The bytes alias the text
// when it held no escape and valid UTF-8, else the decoder's buffer, so
// they are valid until the next string is read.
func (d *Decoder) str() ([]byte, error) {
	if d.peek() != '"' {
		return nil, d.errorf("expected a string")
	}
	start := d.pos + 1
	for i := start; i < len(d.data); i++ {
		switch c := d.data[i]; {
		case c == '"':
			d.pos = i + 1
			return d.data[start:i], nil
		case c == '\\' || c < ' ' || c >= utf8.RuneSelf:
			return d.unquote(start, i)
		}
	}
	d.pos = len(d.data)
	return nil, d.errorf("unterminated string")
}

// unquote finishes a string that needs rewriting from byte i on, with
// encoding/json's unquoting rules.
func (d *Decoder) unquote(start, i int) ([]byte, error) {
	b := append(d.buf[:0], d.data[start:i]...)
	for i < len(d.data) {
		c := d.data[i]
		switch {
		case c == '"':
			d.pos, d.buf = i+1, b
			return b, nil
		case c < ' ':
			d.pos = i
			return nil, d.errorf("control character in string")
		case c < utf8.RuneSelf && c != '\\':
			b = append(b, c)
			i++
		case c >= utf8.RuneSelf:
			r, size := utf8.DecodeRune(d.data[i:])
			b = utf8.AppendRune(b, r)
			i += size
		default: // an escape
			if i+1 >= len(d.data) {
				d.pos = i
				return nil, d.errorf("unterminated string")
			}
			if e := d.data[i+1]; e != 'u' {
				if e = unescape[e]; e == 0 {
					d.pos = i
					return nil, d.errorf("invalid escape in string")
				}
				b = append(b, e)
				i += 2
				continue
			}
			r := hex4(d.data[i+2:])
			if r < 0 {
				d.pos = i
				return nil, d.errorf("invalid \\u escape in string")
			}
			i += 6
			if utf16.IsSurrogate(r) {
				r2 := rune(-1)
				if i+1 < len(d.data) && d.data[i] == '\\' && d.data[i+1] == 'u' {
					r2 = hex4(d.data[i+2:])
				}
				if pair := utf16.DecodeRune(r, r2); pair != unicode.ReplacementChar {
					r = pair
					i += 6
				} else {
					r = unicode.ReplacementChar
				}
			}
			b = utf8.AppendRune(b, r)
		}
	}
	d.pos = len(d.data)
	return nil, d.errorf("unterminated string")
}

// unescape maps the byte after a backslash to the byte it stands for; 0
// marks an escape JSON does not have (\u is handled apart).
var unescape = [256]byte{'"': '"', '\\': '\\', '/': '/', 'b': '\b', 'f': '\f', 'n': '\n', 'r': '\r', 't': '\t'}

// hex4 decodes the four hex digits that lead b, or returns -1.
func hex4(b []byte) rune {
	if len(b) < 4 {
		return -1
	}
	var r rune
	for _, c := range b[:4] {
		switch {
		case c >= '0' && c <= '9':
			c -= '0'
		case c >= 'a' && c <= 'f':
			c -= 'a' - 10
		case c >= 'A' && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

// Skip consumes one value of any kind, checking its grammar: the fate of
// an unknown field, which encoding/json ignores but still scans.
func (d *Decoder) Skip() error {
	switch c := d.peek(); c {
	case '{':
		if err := d.Object(); err != nil {
			return err
		}
		for n := 0; ; n++ {
			if _, ok, err := d.Member(n); err != nil || !ok {
				return err
			}
			if err := d.Skip(); err != nil {
				return err
			}
		}
	case '[':
		if err := d.Array(); err != nil {
			return err
		}
		for n := 0; ; n++ {
			if ok, err := d.Elem(n); err != nil || !ok {
				return err
			}
			if err := d.Skip(); err != nil {
				return err
			}
		}
	case '"':
		_, err := d.str()
		return err
	case 't', 'f':
		_, err := d.boolean()
		return err
	case 'n':
		if d.Null() {
			return nil
		}
		return d.errorf("invalid literal")
	default:
		return d.number()
	}
}

// number consumes a number of any form:
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
func (d *Decoder) number() error {
	i := d.pos
	digits := func() bool {
		j := i
		for i < len(d.data) && d.data[i] >= '0' && d.data[i] <= '9' {
			i++
		}
		return i > j
	}
	if i < len(d.data) && d.data[i] == '-' {
		i++
	}
	if i < len(d.data) && d.data[i] == '0' {
		i++
	} else if !digits() {
		return d.errorf("invalid value")
	}
	if i < len(d.data) && d.data[i] == '.' {
		i++
		if !digits() {
			return d.errorf("invalid number")
		}
	}
	if i < len(d.data) && (d.data[i] == 'e' || d.data[i] == 'E') {
		i++
		if i < len(d.data) && (d.data[i] == '+' || d.data[i] == '-') {
			i++
		}
		if !digits() {
			return d.errorf("invalid number")
		}
	}
	d.pos = i
	return nil
}

// Struct reads an object into a struct whose JSON names are fields:
// member is called with each key and the index of the field it selects, -1
// for none, and must consume the value. null leaves the struct as it was.
func (d *Decoder) Struct(fields *Fields, member func(i int, key []byte) error) error {
	if d.Null() {
		return nil
	}
	if err := d.Object(); err != nil {
		return err
	}
	for n := 0; ; n++ {
		key, ok, err := d.Member(n)
		if err != nil || !ok {
			return err
		}
		if err := member(fields.Index(key), key); err != nil {
			return err
		}
	}
}

// StringInto reads a string into *s; null leaves *s as it was.
func (d *Decoder) StringInto(s *string) error {
	if d.Null() {
		return nil
	}
	b, err := d.str()
	if err == nil {
		*s = string(b)
	}
	return err
}

// IntInto reads an int into *p; null leaves *p as it was.
func (d *Decoder) IntInto(p *int) error {
	if d.Null() {
		return nil
	}
	v, err := d.Int()
	if err == nil {
		*p = v
	}
	return err
}

// BoolInto reads a boolean into *p; null leaves *p as it was.
func (d *Decoder) BoolInto(p *bool) error {
	if d.Null() {
		return nil
	}
	v, err := d.boolean()
	if err == nil {
		*p = v
	}
	return err
}

// Slice reads an array into *s under encoding/json's rules for a slice:
// null sets nil; each element decodes, by elem, over the element already
// at its index, so a repeated key merges into what the first occurrence
// left, stale elements past len included; elements the slice grows by
// start zero; the slice ends cut to the array's length, and [] leaves it
// empty but non-nil.
//
// scratch, when not nil, is a reusable buffer a nil *s decodes through,
// so an array of unknown length costs one exact allocation instead of
// append's doublings.
func Slice[T any](d *Decoder, s *[]T, scratch *[]T, elem func(*Decoder, *T) error) error {
	if d.Null() {
		*s = nil
		return nil
	}
	if err := d.Array(); err != nil {
		return err
	}
	v, fresh := *s, *s == nil && scratch != nil
	if fresh {
		v = (*scratch)[:0]
	}
	var zero T
	n := 0
	for ; ; n++ {
		ok, err := d.Elem(n)
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		switch {
		case n == cap(v):
			v = append(v, zero)
		case n >= len(v):
			v = v[:n+1]
			if fresh {
				v[n] = zero
			}
		}
		if err := elem(d, &v[n]); err != nil {
			return err
		}
	}
	switch {
	case n == 0:
		*s = []T{}
	case fresh:
		*s = append([]T(nil), v[:n]...)
	default:
		*s = v[:n]
	}
	if fresh {
		clear(v[:n]) // drop references the pooled buffer would keep alive
		*scratch = v[:0]
	}
	return nil
}

// Fields matches object keys to a struct's JSON field names the way
// encoding/json does: an exact match first, else a case-insensitive one.
type Fields struct {
	names, folded []string
	maxKey        int // longest key that can fold to a name, in bytes
}

// NewFields returns the matcher for a struct with the given JSON names, in
// field order.
func NewFields(names ...string) Fields {
	f := Fields{names: names}
	for _, n := range names {
		f.folded = append(f.folded, string(appendFold(nil, []byte(n))))
		f.maxKey = max(f.maxKey, utf8.UTFMax*utf8.RuneCountInString(n))
	}
	return f
}

// Index returns the position in the names of the field key selects, or -1
// for an unknown key.
func (f *Fields) Index(key []byte) int {
	for i, n := range f.names {
		if string(key) == n {
			return i
		}
	}
	if len(key) > f.maxKey {
		return -1 // more runes than any name, and folding keeps the count
	}
	var arr [64]byte
	k := appendFold(arr[:0], key)
	for i, n := range f.folded {
		if string(k) == n {
			return i
		}
	}
	return -1
}

// appendFold appends in folded: ASCII letters upper-cased and every other
// rune replaced by the smallest rune of its simple case-folding orbit —
// encoding/json's key folding, under which two keys match exactly when
// bytes.EqualFold says they are equal.
func appendFold(out, in []byte) []byte {
	for i := 0; i < len(in); {
		if c := in[i]; c < utf8.RuneSelf {
			if 'a' <= c && c <= 'z' {
				c -= 'a' - 'A'
			}
			out = append(out, c)
			i++
			continue
		}
		r, n := utf8.DecodeRune(in[i:])
		for {
			r2 := unicode.SimpleFold(r)
			if r2 <= r {
				r = r2
				break
			}
			r = r2
		}
		out = utf8.AppendRune(out, r)
		i += n
	}
	return out
}
