// Package sim provides a small, deterministic discrete-event simulation
// kernel used as the substrate for the COMB reproduction.
//
// The kernel models virtual time in nanoseconds ([Time]), scheduled
// callbacks ([Env.Schedule], [Env.ScheduleCall]), re-keyable slots
// ([Env.NewSlots], [Env.Arm], [Env.Disarm]) — the one cancellable
// event — cooperatively scheduled processes ([Env.Spawn], [Proc]) and
// generation-counted conditions ([Cond]) — the one way a process waits
// for anything but the clock or its own CPU grant.  Future events wait
// in a value-typed 4-ary min-heap; zero-delay events skip the heap
// through a FIFO ring for the current instant.  Armed slots wait in a
// small indexed queue beside the heap.  Entries of all three carry keys drawn
// from one counter, and the loop runs the entry with the smallest key.
// Re-arming a slot moves it in place, which is how a CPU core re-arms a
// preempted completion; a slot armed with zero delay runs among the
// ring entries of its instant, in the order of its key.
//
// The environment also keeps the counts the invariant checker and the
// benchmarks read, so that nothing has to watch every event: the deepest
// Pending seen at a step ([Env.PeakPending]), the first step past
// [Env.PendingLimit] ([Env.PendingOver]), and the queue's work
// ([Env.QueueStats]: heap pushes, slot arms and re-keys).
//
// Processes are coroutines (iter.Pull): the event loop resumes one, and
// it runs until it parks (sleeps, or waits on a Cond) or finishes, with
// no goroutine hand-off in between.  A wait reads the condition's
// generation before checking what it waits for and parks on that
// generation, so a broadcast in between makes it return at once; a
// broadcast readies its waiters at the current instant, in park order,
// and a wake-up carries nothing but the process.  When a process's next wait would end
// before anything else can happen, [Proc.Hold] lets it keep running and
// moves the clock forward, counting the events it stands in for.
//
// Determinism: exactly one of the loop and the processes runs at any
// moment.  Ties between events scheduled for the same timestamp are
// broken by scheduling order, so a simulation run is a pure function of
// its inputs.  [NewPartitionEnv] and [Windows] run several environments
// side by side in conservative time windows with the same event order.
package sim
