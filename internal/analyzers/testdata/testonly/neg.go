// Negative fixture: every exported name here has a non-test use, or is kept
// alive by a rule rather than a reference.
package fixture

import (
	"container/heap"
	"fmt"
)

// Shape is a module interface; Square's Area satisfies it and so counts as
// used though nothing calls it directly.
type Shape interface{ Area() float64 }

type Square struct{ Side float64 }

func (s Square) Area() float64 { return s.Side * s.Side }

func total(shapes []Shape) (sum float64) {
	for _, s := range shapes {
		sum += s.Area()
	}
	return sum
}

var _ = total([]Shape{Square{2}})

// IntHeap satisfies only heap.Interface, which no fixture line names: the
// interface is reached through heap.Push's signature.
type IntHeap []int

func (h IntHeap) Len() int           { return len(h) }
func (h IntHeap) Less(i, j int) bool { return h[i] < h[j] }
func (h IntHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *IntHeap) Push(x any)        { *h = append(*h, x.(int)) }
func (h *IntHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

func push(h *IntHeap) { heap.Push(h, 1) }

// Celsius prints through fmt, which calls String through fmt.Stringer: an
// interface that no fixture line names and no signature spells, declared by
// a package the fixture imports.
type Celsius float64

func (c Celsius) String() string { return fmt.Sprintf("%.1f°C", float64(c)) }

var _ = fmt.Sprint(Celsius(21))

// Config is decoded by reflection: its tagged field counts as used.
type Config struct {
	Name string `json:"name"`
}

func decode() Config { return Config{} }

// Called is used by an unexported function.
func Called() int { return 1 }

func caller() int { return Called() + Limit }

// Limit is used above.
const Limit = 3
