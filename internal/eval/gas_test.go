package eval

import (
	"context"
	"errors"
	"strconv"
	"testing"

	"repro/internal/parser"
	"repro/internal/storage"
)

func TestMeterCharge(t *testing.T) {
	m := NewMeter(10)
	if err := m.Charge(4); err != nil {
		t.Fatalf("charge 4 of 10: %v", err)
	}
	if got := m.Remaining(); got != 6 {
		t.Fatalf("Remaining = %d, want 6", got)
	}
	if err := m.Charge(0); err != nil {
		t.Fatalf("zero charge must be free: %v", err)
	}
	if err := m.Charge(7); !errors.Is(err, ErrGasExhausted) {
		t.Fatalf("overdraw err = %v, want ErrGasExhausted", err)
	}
	// Exhaustion latches: the balance never recovers, and Remaining
	// reports 0 rather than a negative debt.
	if !m.Exhausted() || m.Remaining() != 0 {
		t.Fatalf("after overdraw: exhausted=%v remaining=%d", m.Exhausted(), m.Remaining())
	}
	if err := m.Charge(1); !errors.Is(err, ErrGasExhausted) {
		t.Fatalf("post-exhaustion charge err = %v", err)
	}
}

func TestMeterNilUnlimited(t *testing.T) {
	var m *Meter
	if err := m.Charge(1 << 30); err != nil {
		t.Fatalf("nil meter charged: %v", err)
	}
	if m.Exhausted() || m.Remaining() != -1 {
		t.Fatalf("nil meter: exhausted=%v remaining=%d", m.Exhausted(), m.Remaining())
	}
	if NewMeter(0) != nil || NewMeter(-5) != nil {
		t.Fatal("non-positive limits must mean unlimited (nil meter)")
	}
}

func TestMeterContext(t *testing.T) {
	if MeterFrom(context.Background()) != nil {
		t.Fatal("background ctx must carry no meter")
	}
	m := NewMeter(3)
	ctx := WithMeter(context.Background(), m)
	if MeterFrom(ctx) != m {
		t.Fatal("WithMeter/MeterFrom round trip failed")
	}
	// Attaching nil is a no-op wrapper (still no meter).
	if MeterFrom(WithMeter(context.Background(), nil)) != nil {
		t.Fatal("nil meter attachment must read back as unlimited")
	}
}

// TestCountingChargesDepthZero: both Fig. 9 and Counting charge the
// depth-0 answers, so an exit-only selection larger than the budget
// exhausts it under either driver.
func TestCountingChargesDepthZero(t *testing.T) {
	db := storage.NewDatabase()
	for i := 0; i < 50; i++ {
		db.AddFact("b", "n0", "e"+strconv.Itoa(i))
	}
	plan, err := CompileSelection(mustDef(t, tcSrc, "t"), parser.MustParseAtom("t(n0, Y)"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plan.Open(WithMeter(context.Background(), NewMeter(10)), db, nil); !errors.Is(err, ErrGasExhausted) {
		t.Fatalf("Open err = %v, want ErrGasExhausted", err)
	}
	if _, _, err := plan.EvalCounting(WithMeter(context.Background(), NewMeter(10)), db, 10); !errors.Is(err, ErrGasExhausted) {
		t.Fatalf("EvalCounting err = %v, want ErrGasExhausted", err)
	}
}
