// Package hive implements a miniature HiveQL front end (§IV): a lexer,
// recursive-descent parser and compiler that turn
//
//	SELECT cols FROM table WHERE predicate LIMIT k
//
// into a (dynamic) MapReduce job whose JobConf carries the paper's
// dynamic.job / dynamic.job.policy / dynamic.input.provider parameters,
// plus SET for conf overrides, EXPLAIN, SHOW TABLES and DESCRIBE.
package hive

import (
	"fmt"
	"strings"
)

// tokenKind classifies lexer output.
type tokenKind uint8

const (
	tkEOF tokenKind = iota
	tkIdent
	tkKeyword
	tkNumber
	tkString
	tkOp
)

type token struct {
	kind tokenKind
	text string // keywords upper-cased; idents preserved; ops literal
	pos  int    // byte offset, for error messages
}

var keywords = map[string]bool{
	"SELECT": true, "FROM": true, "WHERE": true, "LIMIT": true,
	"AND": true, "OR": true, "NOT": true, "BETWEEN": true, "IN": true,
	"LIKE": true, "SET": true, "EXPLAIN": true, "SHOW": true,
	"TABLES": true, "DESCRIBE": true, "TRUE": true, "FALSE": true,
	"NULL": true, "AS": true, "GROUP": true, "BY": true,
	"COUNT": true, "SUM": true, "AVG": true, "MIN": true, "MAX": true,
	"ORDER": true, "ASC": true, "DESC": true,
}

// isLetter and isDigit accept ASCII only: lex reads bytes, and a byte
// of a multi-byte character is no character at all.
func isLetter(c byte) bool { return 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' }

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// lex tokenises a statement. SQL strings use single quotes with ”
// escaping; -- starts a line comment.
func lex(src string) ([]token, error) {
	var toks []token
	i := 0
	for i < len(src) {
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '-' && i+1 < len(src) && src[i+1] == '-':
			for i < len(src) && src[i] != '\n' {
				i++
			}
		case isDigit(c) || (c == '.' && i+1 < len(src) && isDigit(src[i+1])):
			j := i
			seenDot := false
			for j < len(src) {
				d := src[j]
				if isDigit(d) {
					j++
				} else if d == '.' && !seenDot {
					seenDot = true
					j++
				} else {
					break
				}
			}
			toks = append(toks, token{kind: tkNumber, text: src[i:j], pos: i})
			i = j
		case isLetter(c) || c == '_':
			j := i
			for j < len(src) && (isLetter(src[j]) || isDigit(src[j]) || src[j] == '_' || src[j] == '.') {
				j++
			}
			word := src[i:j]
			up := strings.ToUpper(word)
			if keywords[up] {
				toks = append(toks, token{kind: tkKeyword, text: up, pos: i})
			} else {
				toks = append(toks, token{kind: tkIdent, text: word, pos: i})
			}
			i = j
		case c == '\'':
			j := i + 1
			var sb strings.Builder
			closed := false
			for j < len(src) {
				if src[j] == '\'' {
					if j+1 < len(src) && src[j+1] == '\'' {
						sb.WriteByte('\'')
						j += 2
						continue
					}
					closed = true
					j++
					break
				}
				sb.WriteByte(src[j])
				j++
			}
			if !closed {
				return nil, fmt.Errorf("hive: unterminated string at offset %d", i)
			}
			toks = append(toks, token{kind: tkString, text: sb.String(), pos: i})
			i = j
		default:
			two := ""
			if i+1 < len(src) {
				two = src[i : i+2]
			}
			switch two {
			case "<=", ">=", "!=", "<>", "==":
				toks = append(toks, token{kind: tkOp, text: two, pos: i})
				i += 2
				continue
			}
			switch c {
			case '=', '<', '>', '+', '-', '*', '/', '(', ')', ',', ';':
				toks = append(toks, token{kind: tkOp, text: string(c), pos: i})
				i++
			default:
				return nil, fmt.Errorf("hive: unexpected character %q at offset %d", c, i)
			}
		}
	}
	toks = append(toks, token{kind: tkEOF, pos: len(src)})
	return toks, nil
}
