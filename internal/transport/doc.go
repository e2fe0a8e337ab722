// Package transport implements the message-movement layers COMB compares:
//
//   - [GM]: a user-level, OS-bypass NIC stack modeled on Myricom GM 1.4
//     with MPICH/GM on a LANai 7.2.  Data moves by NIC DMA with no host
//     interrupts or kernel copies, but every protocol decision (eager
//     completion, rendezvous CTS, completion flags) is taken inside MPI
//     library calls — the system has high bandwidth and near-zero overhead
//     yet provides NO application offload.
//
//   - [Portals]: the kernel-based Portals 3.0 implementation for Myrinet
//     used in the paper.  The NIC is a dumb packet engine; every arriving
//     packet interrupts the host, and the kernel matches and memcpy's data
//     between kernel and user space.  Bandwidth is host-copy-limited and
//     CPU availability suffers, but the kernel progresses messages without
//     any MPI calls — the system provides application offload.
//
//   - [TCP]: MPI over kernel TCP/IP sockets on switched Fast Ethernet,
//     the commodity baseline of the era.  The kernel moves bytes into
//     socket buffers by itself, with interrupts, copies and software
//     checksums, but matching and the copy to user memory happen only
//     inside MPI calls: a hybrid of the two progress disciplines.
//
//   - [EMP]: NIC-driven, zero-copy message passing on programmable
//     gigabit Ethernet NICs (the paper's reference [10]).  Firmware
//     matches and DMAs between user buffers and the wire, so the system
//     offloads with near-zero host overhead.
//
//   - [Ideal]: a zero-host-cost, fully offloaded reference transport used
//     for tests and ablations (an upper bound no real 2002 system reached).
//
// None of them declares whether it offloads: COMB measures that (paper
// §4.1, package assess).  Transports bind rank i to node i of a
// [cluster.System].  Every endpoint embeds one core (endpoint.go): its
// node, fabric, activity condition, matcher and message numbering.
// Wire and message records are recycled on freelists kept one set per
// simulation environment, like the fabric's packet pools.
package transport
