package fault

import (
	"errors"
	"math/rand"
	"time"

	"repro/internal/obs"
)

// RetryPolicy retries a transient operation with capped exponential backoff
// and deterministic jitter. The zero value performs exactly one attempt; a
// policy with MaxAttempts n tries up to n times. The clock and the jitter
// source are injectable so retry tests run instantly and chaos runs replay
// bit-identically from their seed.
type RetryPolicy struct {
	// MaxAttempts is the total number of attempts; values <= 1 disable
	// retrying.
	MaxAttempts int
	// BaseDelay is the backoff before the first retry (default 10ms); each
	// further retry doubles it up to MaxDelay (default 1s).
	BaseDelay time.Duration
	MaxDelay  time.Duration
	// Seed feeds the jitter generator. The same seed yields the same delay
	// sequence, keeping chaos runs reproducible.
	Seed int64
	// Sleep replaces time.Sleep in tests; nil uses the real clock.
	Sleep func(time.Duration)
	// Classify reports whether an error is worth retrying; nil retries
	// every error except contained panics (*PanicError), which indicate a
	// crash rather than a transient condition.
	Classify func(error) bool
}

// Do runs fn until it succeeds, the attempt budget is exhausted, or an
// error is classified non-retryable. op names the operation at the call site
// only: the retry counters it feeds (obs.Engine) are process-wide. The final
// error — nil on success — is returned unchanged, so injected faults, typed
// sentinels and wrapped causes keep matching through errors.Is/As.
func (p RetryPolicy) Do(op string, fn func() error) error {
	attempts := p.MaxAttempts
	if attempts < 1 {
		attempts = 1
	}
	base := p.BaseDelay
	if base <= 0 {
		base = 10 * time.Millisecond
	}
	maxd := p.MaxDelay
	if maxd <= 0 {
		maxd = time.Second
	}
	sleep := p.Sleep
	if sleep == nil {
		sleep = time.Sleep
	}
	var rng *rand.Rand // lazily built: only retrying paths need jitter
	var err error
	for attempt := 1; ; attempt++ {
		err = fn()
		if err == nil {
			if attempt > 1 {
				obs.Engine.RetrySucceeded.Add(1)
			}
			return nil
		}
		var pe *PanicError
		if errors.As(err, &pe) {
			return err // a contained crash is not transient
		}
		if p.Classify != nil && !p.Classify(err) {
			return err
		}
		if attempt >= attempts {
			break
		}
		obs.Engine.Retries.Add(1)
		if rng == nil {
			rng = rand.New(rand.NewSource(p.Seed))
		}
		sleep(p.backoff(attempt, rng))
	}
	if attempts > 1 {
		obs.Engine.RetryExhausted.Add(1)
	}
	return err
}

// backoff computes the delay before retry number attempt (1-based):
// BaseDelay doubled per attempt, capped at MaxDelay, with a deterministic
// jitter in [delay/2, delay] drawn from the seeded generator (full-jitter
// halves thundering herds without losing reproducibility).
func (p RetryPolicy) backoff(attempt int, rng *rand.Rand) time.Duration {
	base := p.BaseDelay
	if base <= 0 {
		base = 10 * time.Millisecond
	}
	maxd := p.MaxDelay
	if maxd <= 0 {
		maxd = time.Second
	}
	d := base
	for i := 1; i < attempt && d < maxd; i++ {
		d *= 2
	}
	if d > maxd {
		d = maxd
	}
	half := d / 2
	if half > 0 {
		d = half + time.Duration(rng.Int63n(int64(half)+1))
	}
	return d
}
