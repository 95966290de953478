// Package lib is the reach fixture's internal package.
package lib

import "errors"

// Used is reached from the root package.
const Used = 3 // ok: the root reads it

// Dead is reached by nothing.
const Dead = 4 // want `exported const lib.Dead is reached by no non-test file`

// DeadVar is reached by nothing.
var DeadVar = 5 // want `exported var lib.DeadVar is reached`

// DeadType is reached by nothing.
type DeadType struct{} // want `exported type lib.DeadType is reached`

// DeadFunc is reached by nothing.
func DeadFunc() {} // want `exported func lib.DeadFunc is reached`

// Box is built by NewBox.
type Box struct{ n int }

// NewBox returns an empty box.
func NewBox() *Box { return &Box{} }

// Size is reached as a method value.
func (b *Box) Size() int { return b.n } // ok: the root takes its method value

// Grow is reached by nothing.
func (b *Box) Grow() { b.n++ } // want `exported func lib.Box.Grow is reached`

// Helper is reached only from its own package.
func Helper() int { return 1 } // ok: a use inside the declaring package counts

func (b *Box) grow2() { b.n += Helper() }

// Shape is an interface the module declares.
type Shape interface{ Area() float64 }

// Square implements Shape.
type Square struct{}

// Area is called through Shape.
func (Square) Area() float64 { return 1 } // ok: implements a method of Shape

// String is called by the standard library.
func (Square) String() string { return "square" } // ok: stdlib name

// Error is called by the standard library.
func (Square) Error() string { return "square" } // ok: stdlib name

// MarshalJSON is called by the standard library.
func (Square) MarshalJSON() ([]byte, error) { return nil, nil } // ok: stdlib name

// Sink implements io.Writer, which the root names.
type Sink struct{}

// Write is called through io.Writer.
func (Sink) Write(p []byte) (int, error) { return len(p), nil } // ok: implements io.Writer

// Config is a config type in confvalid's sense.
type Config struct{ N int }

// DefaultConfig is the baseline confvalid requires.
func DefaultConfig() *Config { return &Config{N: 1} } // ok: Default* constructor of a config

// DefaultN is not a config constructor.
func DefaultN() int { return 1 } // want `exported func lib.DefaultN is reached`

// Validate reports a non-positive N.
func (c *Config) Validate() error {
	if c.N < 1 {
		return errors.New("lib: N must be positive")
	}
	return nil
}

// Stack is generic; its methods are reached through instances.
type Stack[T any] struct{ items []T }

// Push is reached through Stack[int].
func (s *Stack[T]) Push(v T) { s.items = append(s.items, v) } // ok: instance folded to its origin

// Pop is reached by nothing.
func (s *Stack[T]) Pop() T { // want `exported func lib.Stack.Pop is reached`
	v := s.items[len(s.items)-1]
	s.items = s.items[:len(s.items)-1]
	return v
}

type hidden struct{}

// Exported is a method of an unexported type.
func (hidden) Exported() {} // ok: the type is unexported

// Kept is reached only from tests, and says who.
//
//symbee:ignore reach -- the fixture's tests call it
func Kept() {} // ok: ignored with its caller named
