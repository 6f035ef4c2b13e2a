package lang

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

// Token kinds for the restricted-C surface syntax.
type tokKind int

const (
	tokEOF tokKind = iota
	tokIdent
	tokNumber
	tokPunct  // single/double character operators and delimiters
	tokPragma // a whole "#pragma ..." line
)

type token struct {
	kind tokKind
	text string
	line int
}

type lexer struct {
	src    string
	pos    int
	line   int
	tokens []token
}

// lex splits the source into tokens; pragma lines are kept whole.
func lex(src string) ([]token, error) {
	l := &lexer{src: src, line: 1}
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == '\n':
			l.line++
			l.pos++
		case c == ' ' || c == '\t' || c == '\r':
			l.pos++
		case c == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '/':
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		case c == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '*':
			end := strings.Index(l.src[l.pos+2:], "*/")
			if end < 0 {
				return nil, fmt.Errorf("line %d: unterminated comment", l.line)
			}
			l.line += strings.Count(l.src[l.pos:l.pos+end+4], "\n")
			l.pos += end + 4
		case c == '#':
			start := l.pos
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
			l.tokens = append(l.tokens, token{tokPragma, strings.TrimSpace(l.src[start:l.pos]), l.line})
		case unicode.IsLetter(rune(c)) || c == '_':
			start := l.pos
			for l.pos < len(l.src) && (isIdentChar(l.src[l.pos])) {
				l.pos++
			}
			l.tokens = append(l.tokens, token{tokIdent, l.src[start:l.pos], l.line})
		case unicode.IsDigit(rune(c)) || (c == '.' && l.pos+1 < len(l.src) && unicode.IsDigit(rune(l.src[l.pos+1]))):
			start := l.pos
			seenE := false
			for l.pos < len(l.src) {
				ch := l.src[l.pos]
				if unicode.IsDigit(rune(ch)) || ch == '.' {
					l.pos++
					continue
				}
				if (ch == 'e' || ch == 'E') && !seenE {
					seenE = true
					l.pos++
					if l.pos < len(l.src) && (l.src[l.pos] == '+' || l.src[l.pos] == '-') {
						l.pos++
					}
					continue
				}
				break
			}
			l.tokens = append(l.tokens, token{tokNumber, l.src[start:l.pos], l.line})
		default:
			// Two-character operators first.
			if l.pos+1 < len(l.src) {
				two := l.src[l.pos : l.pos+2]
				switch two {
				case "<=", ">=", "==", "!=", "&&", "||", "+=", "-=", "*=", "++":
					l.tokens = append(l.tokens, token{tokPunct, two, l.line})
					l.pos += 2
					continue
				}
			}
			switch c {
			case '+', '-', '*', '/', '<', '>', '=', '(', ')', '{', '}', '[', ']', ';', ',', '.', '!':
				l.tokens = append(l.tokens, token{tokPunct, string(c), l.line})
				l.pos++
			default:
				return nil, fmt.Errorf("line %d: unexpected character %q", l.line, string(c))
			}
		}
	}
	l.tokens = append(l.tokens, token{tokEOF, "", l.line})
	return l.tokens, nil
}

func isIdentChar(c byte) bool {
	return c == '_' || unicode.IsLetter(rune(c)) || unicode.IsDigit(rune(c))
}

func parseNumber(s string, line int) (float64, error) {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("line %d: bad number %q", line, s)
	}
	return v, nil
}
