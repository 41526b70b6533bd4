// The counter schema: every monotone u64 counter the Time Warp kernel keeps,
// declared once. Each list is an X-macro over the counter's field name; the
// kernel's stats structs (tw::ObjectStats, tw::LpStats), their merge(), the
// run-end exporter (tw::build_metrics) and the live plane's registry slots,
// exposition and JSON snapshot are all generated from these lists. Adding a
// counter is one line here plus its increment in the kernel.
//
// Names are exposition names too: a counter `x` in the object list is
// exported as `otw_x_total` (run total), in the LP list as
// `otw_lp_x_total{lp=...}`, and in both lists as `otw_live_x_total{shard=...}`
// and the `/snapshot` key "x". DESIGN.md section 9 documents every entry
// (tools/check_docs.py fails when they drift apart).
//
// Lives in otw::obs so the live plane can use it without depending on tw.
#pragma once

/// Per simulation object (tw::ObjectStats); summed per LP and per run.
#define OTW_OBJECT_COUNTERS(X)                                               \
  X(events_processed)         /* process_event calls, incl. re-execution */  \
  X(events_committed)         /* events finally below GVT */                 \
  X(events_rolled_back)       /* processed events undone by rollbacks */     \
  X(rollbacks)                                                               \
  X(coast_forward_events)                                                    \
  X(states_saved)                                                            \
  X(state_restores)                                                          \
  X(messages_sent)            /* positive messages, re-sends included */     \
  X(anti_messages_sent)                                                      \
  X(anti_messages_received)                                                  \
  X(stragglers)                                                              \
  X(lazy_hits)                /* identical regeneration under lazy */        \
  X(lazy_misses)              /* lazy entries cancelled after all */         \
  X(passive_hits)             /* "lazy aggressive hits" (paper S5) */        \
  X(passive_misses)                                                          \
  X(cancellation_switches)                                                   \
  X(checkpoint_control_ticks)

/// Per logical process (tw::LpStats).
#define OTW_LP_COUNTERS(X)                                                   \
  X(gvt_epochs)                                                              \
  X(gvt_rounds)               /* token passes handled */                     \
  X(events_sent_remote)                                                      \
  X(events_sent_local)                                                       \
  X(aggregates_sent)                                                         \
  X(messages_aggregated)                                                     \
  X(steps)                                                                   \
  X(idle_polls)                                                              \
  X(pool_recycled_blocks)     /* allocations served by freelists */          \
  X(pressure_enters)          /* Normal -> Throttle/Emergency edges */       \
  X(pressure_exits)           /* edges back to Normal */                     \
  X(pressure_gvt_triggers)    /* early GVT epochs forced by pressure */      \
  X(sends_held)               /* cancelback-lite: sends deferred */          \
  X(holds_annihilated)        /* held sends cancelled in place */
