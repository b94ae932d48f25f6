package clusterd

import (
	"sync"

	"ampom/internal/scenario"
)

// job is one registry entry: the submitted spec, its lifecycle state, and
// the event stream subscribers follow. The registry key is the spec
// fingerprint's result-store cell key, so the in-memory registry, the
// engine's single-flight cache and the on-disk store all agree about
// which submissions are "the same job".
type job struct {
	key    string
	spec   scenario.Spec
	shards int
	tenant string

	mu     sync.Mutex
	status string
	cached bool
	errMsg string
	// events is the replay buffer: a subscriber arriving mid-run first
	// receives every event so far, then the live tail — no gap, no
	// duplicate, because subscribe snapshots and registers under one lock.
	events []Event
	subs   map[chan Event]struct{}
	// done closes on the terminal transition; the terminal event is
	// published before done closes, so a drained subscriber channel plus a
	// closed done means the stream is complete.
	done chan struct{}
}

// subEventBuffer bounds one subscriber's channel. A job emits one event
// per policy plus a handful of lifecycle transitions, so a slow reader
// would need to ignore its socket entirely to overflow; overflowing
// events are dropped for that subscriber rather than blocking the engine.
const subEventBuffer = 64

func newJob(key string, spec scenario.Spec, shards int, tenant, status string) *job {
	return &job{
		key:    key,
		spec:   spec,
		shards: shards,
		tenant: tenant,
		status: status,
		subs:   make(map[chan Event]struct{}),
		done:   make(chan struct{}),
	}
}

// snapshot returns the job's wire status.
func (j *job) snapshot() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return JobStatus{
		Key:      j.key,
		Scenario: j.spec.Name,
		Status:   j.status,
		Cached:   j.cached,
		Error:    j.errMsg,
	}
}

// publish appends an event to the replay buffer and fans it out to every
// live subscriber.
func (j *job) publish(ev Event) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.events = append(j.events, ev)
	for ch := range j.subs {
		select {
		case ch <- ev:
		default: // subscriber hopelessly behind; drop rather than block
		}
	}
}

// setStatus moves the job to a new lifecycle state and publishes the
// transition. Terminal states close done after the terminal event is
// buffered, so subscribers always observe the transition.
func (j *job) setStatus(status, errMsg string) {
	j.mu.Lock()
	j.status = status
	j.errMsg = errMsg
	ev := Event{Type: "status", Status: status, Error: errMsg}
	j.events = append(j.events, ev)
	for ch := range j.subs {
		select {
		case ch <- ev:
		default:
		}
	}
	terminal := status == StatusDone || status == StatusFailed
	j.mu.Unlock()
	if terminal {
		close(j.done)
	}
}

// subscribe returns the replay buffer so far and a channel carrying every
// later event. Snapshot and registration happen under one lock, so the
// two views splice without gap or duplicate.
func (j *job) subscribe() (replay []Event, ch chan Event) {
	ch = make(chan Event, subEventBuffer)
	j.mu.Lock()
	replay = append([]Event(nil), j.events...)
	j.subs[ch] = struct{}{}
	j.mu.Unlock()
	return replay, ch
}

// unsubscribe detaches a subscriber channel.
func (j *job) unsubscribe(ch chan Event) {
	j.mu.Lock()
	delete(j.subs, ch)
	j.mu.Unlock()
}
