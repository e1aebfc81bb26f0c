package wire

import (
	"strings"
	"testing"
)

// TestNewMessageFailsClosedOnUnknownKind pins the factory's fail-closed
// contract over the whole kind space: every value newMessage does not
// recognize must yield untyped nil, and Unmarshal must convert that nil
// into an explicit "unknown message kind" error — never hand back a silently
// zero-decoded message. (Regression for the fall-open switch the failclosed
// analyzer flagged: the old code fell off the end of the switch, and the
// fail-closed behavior existed only by accident of the caller's nil check.)
func TestNewMessageFailsClosedOnUnknownKind(t *testing.T) {
	known := 0
	for k := 0; k < 256; k++ {
		kind := MsgKind(k)
		msg := newMessage(kind)
		if msg != nil {
			known++
			continue
		}
		got, err := Unmarshal(kind, nil)
		if err == nil {
			t.Fatalf("kind %d: unknown kind decoded without error (got %T)", k, got)
		}
		if !strings.Contains(err.Error(), "unknown message kind") {
			t.Fatalf("kind %d: error = %q, want unknown-message-kind", k, err)
		}
		if got != nil {
			t.Fatalf("kind %d: non-nil message %T alongside error", k, got)
		}
	}
	if known == 0 {
		t.Fatal("factory recognized no kinds at all; test is vacuous")
	}
}
