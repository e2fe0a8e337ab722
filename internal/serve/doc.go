// Package serve turns the comb simulator into a benchmark service: an
// HTTP/JSON API accepting schema-versioned RunSpecs (the same
// spec.Spec the library, CLI and manifests use) and answering with
// content-addressed results.
//
// The pipeline from POST to answer:
//
//	submit → validate/normalize (method registry) → cache key
//	       → bounded worker fleet
//	       → result store hit?           → source "cache"
//	       → identical key in flight?    → wait, source "shared"
//	       → breaker → timeout → engine run, source "run"
//
// Identical in-flight specs collapse into a single engine execution
// (singleflight over the method/system/hash cache key), so N clients
// submitting the same point concurrently cost one run and all observe
// the same result hash.  The optional Store extends deduplication
// across time by layering provenance sidecars over the runner's
// schema-2 disk cache, with the entries it has read kept decoded in a
// bounded memory tier.
//
// Progress is observable three ways: plain GET (snapshot), ?wait=
// long-polling on the job's version counter, and an SSE event stream.
// Every server metric — request counts by route, job sources (which is
// how tests prove the singleflight ran the engine once), breaker
// state, queue rejections — exports in Prometheus text form at
// /metrics.
package serve
