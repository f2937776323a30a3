package jsonwire

// Compact appends the JSON text src to dst as json.Marshal writes a
// json.RawMessage holding it: without whitespace outside strings, and with
// <, >, &, U+2028 and U+2029 in strings escaped as \u003c, \u003e, \u0026,
// \u2028 and \u2029; everything else, invalid UTF-8 included, is copied as
// it stands. It checks src against encoding/json's grammar in the same
// pass and fails, returning dst as it was, on exactly the texts json.Marshal
// rejects: anything but one value with optional whitespace around it.
func Compact(dst, src []byte) ([]byte, error) {
	c := compactor{Decoder: NewDecoder(src), out: dst}
	err := c.text()
	if err == nil {
		end := c.pos
		if err = c.End(); err == nil {
			return append(c.out, src[c.from:end]...), nil
		}
	}
	return dst, err
}

// compactor walks a text, checking it as Skip does, and copies it to out
// in runs: from is the start of the text not yet copied, and a run ends
// wherever whitespace is cut or a byte is escaped.
type compactor struct {
	Decoder
	out  []byte
	from int
}

// space skips whitespace, cutting it from the copy, and returns the next
// byte, 0 at the end.
func (c *compactor) space() byte {
	at := c.pos
	b := c.peek()
	if c.pos != at {
		c.out = append(c.out, c.data[c.from:at]...)
		c.from = c.pos
	}
	return b
}

// replace copies the text before i and then s in place of its n bytes at i.
func (c *compactor) replace(i, n int, s string) {
	c.out = append(c.out, c.data[c.from:i]...)
	c.out = append(c.out, s...)
	c.from = i + n
}

// text copies one value and what it nests, keeping the brackets of the
// open objects and arrays on a stack instead of recursing.
func (c *compactor) text() error {
	open := make([]byte, 0, 64)
	for {
		// At a value.
		switch b := c.space(); b {
		case '{', '[':
			if len(open) == maxDepth {
				return c.errorf("exceeded max depth")
			}
			c.pos++
			if c.space() == b+2 { // } and ] follow { and [ by two
				c.pos++
				break
			}
			open = append(open, b)
			if b == '{' {
				if err := c.key(); err != nil {
					return err
				}
			}
			continue
		case '"':
			if err := c.str(); err != nil {
				return err
			}
		case 't', 'f':
			if _, err := c.boolean(); err != nil {
				return err
			}
		case 'n':
			if !c.literal("null") {
				return c.errorf("invalid literal")
			}
		default:
			if err := c.number(); err != nil {
				return err
			}
		}
		// After a value: close what it ends, then step to the next one.
		for {
			if len(open) == 0 {
				return nil
			}
			b, top := c.space(), open[len(open)-1]
			if b == top+2 {
				c.pos++
				open = open[:len(open)-1]
				continue
			}
			if b != ',' {
				return c.errorf("expected , or %c", top+2)
			}
			c.pos++
			if top == '{' {
				if err := c.key(); err != nil {
					return err
				}
			}
			break
		}
	}
}

// key copies an object member's key and its colon.
func (c *compactor) key() error {
	if c.space() != '"' {
		return c.errorf("expected a string")
	}
	if err := c.str(); err != nil {
		return err
	}
	if c.space() != ':' {
		return c.errorf("expected : after object key")
	}
	c.pos++
	return nil
}

// str copies a string, checking its escapes and escaping the characters
// encoding/json escapes for HTML.
func (c *compactor) str() error {
	data := c.data
	i := c.pos + 1 // past the quote
	for i < len(data) {
		switch b := data[i]; {
		case b == '"':
			c.pos = i + 1
			return nil
		case b == '\\':
			if i+1 >= len(data) {
				c.pos = i
				return c.errorf("unterminated string")
			}
			switch e := data[i+1]; {
			case e == 'u' && hex4(data[i+2:]) >= 0:
				i += 6
			case e != 'u' && unescape[e] != 0:
				i += 2
			default:
				c.pos = i
				return c.errorf("invalid escape in string")
			}
		case b < ' ':
			c.pos = i
			return c.errorf("control character in string")
		case b == '<':
			c.replace(i, 1, `\u003c`)
			i++
		case b == '>':
			c.replace(i, 1, `\u003e`)
			i++
		case b == '&':
			c.replace(i, 1, `\u0026`)
			i++
		case b == 0xE2 && i+2 < len(data) && data[i+1] == 0x80 && data[i+2] == 0xA8:
			c.replace(i, 3, `\u2028`)
			i += 3
		case b == 0xE2 && i+2 < len(data) && data[i+1] == 0x80 && data[i+2] == 0xA9:
			c.replace(i, 3, `\u2029`)
			i += 3
		default:
			i++
		}
	}
	c.pos = len(data)
	return c.errorf("unterminated string")
}
