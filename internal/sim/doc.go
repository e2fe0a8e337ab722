// Package sim provides a small, deterministic discrete-event simulation
// kernel used as the substrate for the COMB reproduction.
//
// The kernel models virtual time in nanoseconds ([Time]), scheduled
// callbacks ([Env.Schedule]) and cancellable timers ([Env.ScheduleTimer]),
// re-keyable completion slots ([Env.NewSlots], [Env.Arm]), cooperatively
// scheduled processes ([Env.Spawn], [Proc]) and one-shot condition events
// ([Event]).  Future events wait in a value-typed 4-ary min-heap;
// zero-delay events skip the heap through a FIFO ring for the current
// instant.  A stopped timer leaves the heap at once.  Armed slots wait
// in a small indexed queue beside the heap, keyed like heap entries, and
// the loop runs whichever head sorts first; re-arming a slot moves it in
// place, which is how a CPU core re-arms a preempted completion.
//
// The environment also keeps the counts the invariant checker and the
// benchmarks read, so that nothing has to watch every event: the deepest
// Pending seen at a step ([Env.PeakPending]), the first step past
// [Env.PendingLimit] ([Env.PendingOver]), and the queue's work
// ([Env.QueueStats]: heap pushes and removals, slot arms and re-keys).
//
// Processes are coroutines (iter.Pull): the event loop resumes one, and
// it runs until it parks (sleeps or awaits an event) or finishes, with no
// goroutine hand-off in between.  When a process's next wait would end
// before anything else can happen, [Proc.Hold] lets it keep running and
// moves the clock forward, counting the events it stands in for.
//
// Determinism: exactly one of the loop and the processes runs at any
// moment.  Ties between events scheduled for the same timestamp are
// broken by scheduling order, so a simulation run is a pure function of
// its inputs.  [NewPartitionEnv] and [Windows] run several environments
// side by side in conservative time windows with the same event order.
package sim
