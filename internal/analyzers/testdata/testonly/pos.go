// Positive fixture: exported names only tests could reach.
package fixture

func Helper() {} // want `exported Helper is used only by tests`

const Unused = 1 // want `exported Unused is used only by tests`

var Counter int // want `exported Counter is used only by tests`

type Orphan struct{} // want `exported Orphan is used only by tests`

// Perimeter satisfies no interface and nothing calls it.
func (s Square) Perimeter() float64 { return 4 * s.Side } // want `exported Square.Perimeter is used only by tests`

type options struct {
	Verbose bool   // want `exported options.Verbose is used only by tests`
	Name    string `json:"name"`
}

var _ = options{Name: "x"}

// impl is reachable only through the Facade alias; the alias keeps the type
// alive, not its methods.
type impl struct{}

func (impl) Hidden() {} // want `exported impl.Hidden is used only by tests`

type Facade = impl

var _ Facade
