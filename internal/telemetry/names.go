package telemetry

// Name is a registered metric identifier. Every counter, gauge and
// histogram in the process shares one namespace, and dashboards,
// fingerprint tests and report diffs key on these strings — so names
// are compile-time constants declared in this file, never computed at
// runtime. The pablint telemetryhygiene rule enforces both halves:
// metric-name arguments must be constants (or values that already
// carry this type), and every constant name used anywhere in the tree
// must appear below.
//
// Naming convention: subsystem prefix, snake_case, and a unit or
// "_total" suffix (Prometheus style).
type Name string

// Registered metric names, grouped by subsystem.
const (
	// channel — image-method impulse responses and injected faults.
	MChannelResponsesTotal      Name = "channel_responses_total"
	MChannelIrTaps              Name = "channel_ir_taps"
	MChannelIrImagesConsidered  Name = "channel_ir_images_considered"
	MChannelIrMaxDelaySeconds   Name = "channel_ir_max_delay_seconds"
	MChannelImpulseBurstsTotal  Name = "channel_impulse_bursts_total"
	MChannelClippedSamplesTotal Name = "channel_clipped_samples_total"

	// mac — framed-slotted-ALOHA inventory and the query/reply engine.
	MMacInventoryRoundsTotal      Name = "mac_inventory_rounds_total"
	MMacInventoryQ                Name = "mac_inventory_q"
	MMacInventorySlotsTotal       Name = "mac_inventory_slots_total"
	MMacInventorySilentNodesTotal Name = "mac_inventory_silent_nodes_total"
	MMacInventorySlotOccupancy    Name = "mac_inventory_slot_occupancy"
	MMacInventoryEmptySlotsTotal  Name = "mac_inventory_empty_slots_total"
	MMacInventorySingletonsTotal  Name = "mac_inventory_singletons_total"
	MMacInventoryJammedSlotsTotal Name = "mac_inventory_jammed_slots_total"
	MMacInventoryCollisionsTotal  Name = "mac_inventory_collisions_total"
	MMacRetriesTotal              Name = "mac_retries_total"
	MMacQueriesTotal              Name = "mac_queries_total"
	MMacAirtimeSeconds            Name = "mac_airtime_seconds"
	MMacFailuresTotal             Name = "mac_failures_total"
	MMacRepliesTotal              Name = "mac_replies_total"
	MMacFailuresNoSyncTotal       Name = "mac_failures_no_sync_total"
	MMacFailuresCrcTotal          Name = "mac_failures_crc_total"
	MMacFailuresTimeoutTotal      Name = "mac_failures_timeout_total"
	MMacRoundsTotal               Name = "mac_rounds_total"

	// mac.Session — the resilient poll loop and its rate ladder.
	MMacSessionSkippedPollsTotal    Name = "mac_session_skipped_polls_total"
	MMacSessionPollsTotal           Name = "mac_session_polls_total"
	MMacSessionSweepsTotal          Name = "mac_session_sweeps_total"
	MMacSessionBackoffSeconds       Name = "mac_session_backoff_seconds"
	MMacSessionRecoverySeconds      Name = "mac_session_recovery_seconds"
	MMacSessionRehabilitationsTotal Name = "mac_session_rehabilitations_total"
	MMacSessionUpshiftsTotal        Name = "mac_session_upshifts_total"
	MMacSessionDownshiftsTotal      Name = "mac_session_downshifts_total"
	MMacSessionEvictionsTotal       Name = "mac_session_evictions_total"
	MMacSessionQuarantinesTotal     Name = "mac_session_quarantines_total"

	// phy — the FM0 decoder and preamble sync.
	MPhyFm0DecodesTotal  Name = "phy_fm0_decodes_total"
	MPhyFm0BitsTotal     Name = "phy_fm0_bits_total"
	MPhySyncMissesTotal  Name = "phy_sync_misses_total"
	MPhySyncDetectsTotal Name = "phy_sync_detects_total"
	MPhySyncCandidates   Name = "phy_sync_candidates"
	MPhySyncPeak         Name = "phy_sync_peak"

	// core — the end-to-end link, FDMA network and concurrent runner.
	MCoreFdmaChannels                Name = "core_fdma_channels"
	MCoreLinkLevel                   Name = "core_link_level"
	MCoreLinkDownshiftsTotal         Name = "core_link_downshifts_total"
	MCoreLinkUpshiftsTotal           Name = "core_link_upshifts_total"
	MCoreLinkQueriesTotal            Name = "core_link_queries_total"
	MCoreDownlinkDecodesTotal        Name = "core_downlink_decodes_total"
	MCoreDownlinkDecodeFailuresTotal Name = "core_downlink_decode_failures_total"
	MCoreFaultTruncatedUplinksTotal  Name = "core_fault_truncated_uplinks_total"
	MCoreFaultMidframeBrownoutsTotal Name = "core_fault_midframe_brownouts_total"
	MCoreFaultFadedUplinksTotal      Name = "core_fault_faded_uplinks_total"
	MCoreUplinkBer                   Name = "core_uplink_ber"
	MCoreConcurrentRunsTotal         Name = "core_concurrent_runs_total"
	MCoreConcurrentCondition         Name = "core_concurrent_condition"
	MCoreUplinkDecodeFailuresTotal   Name = "core_uplink_decode_failures_total"
	MCoreUplinkDecodesTotal          Name = "core_uplink_decodes_total"
	MCoreUplinkSnrDb                 Name = "core_uplink_snr_db"

	// sim — the pabd job scheduler: queue, worker pool and the
	// content-addressed result cache.
	MSimQueueDepth          Name = "sim_queue_depth"
	MSimWorkersBusy         Name = "sim_workers_busy"
	MSimJobsSubmittedTotal  Name = "sim_jobs_submitted_total"
	MSimJobsDedupedTotal    Name = "sim_jobs_deduped_total"
	MSimJobsRejectedTotal   Name = "sim_jobs_rejected_total"
	MSimJobsCompletedTotal  Name = "sim_jobs_completed_total"
	MSimJobsFailedTotal     Name = "sim_jobs_failed_total"
	MSimJobsCanceledTotal   Name = "sim_jobs_canceled_total"
	MSimJobsTimedOutTotal   Name = "sim_jobs_timed_out_total"
	MSimCacheHitsTotal      Name = "sim_cache_hits_total"
	MSimCacheMissesTotal    Name = "sim_cache_misses_total"
	MSimCacheEvictionsTotal Name = "sim_cache_evictions_total"
	MSimJobDurationSeconds  Name = "sim_job_duration_seconds"
	MSimJobQueueWaitSeconds Name = "sim_job_queue_wait_seconds"
	MSimStreamRowsTotal     Name = "sim_stream_rows_total"

	// sim durability — the WAL-backed job lifecycle: retries with
	// backoff, admission-control shedding, dead-lettering and startup
	// replay.
	MSimJobsRetriedTotal        Name = "sim_jobs_retried_total"
	MSimJobsShedTotal           Name = "sim_jobs_shed_total"
	MSimJobsDeadletteredTotal   Name = "sim_jobs_deadlettered_total"
	MSimRetryBackoffSeconds     Name = "sim_retry_backoff_seconds"
	MSimWalReplayedJobsTotal    Name = "sim_wal_replayed_jobs_total"
	MSimWalReplayedResultsTotal Name = "sim_wal_replayed_results_total"
	MSimWalAppendErrorsTotal    Name = "sim_wal_append_errors_total"

	// wal — the append-only durable record log under the job store.
	MWalAppendsTotal         Name = "wal_appends_total"
	MWalFsyncsTotal          Name = "wal_fsyncs_total"
	MWalRotationsTotal       Name = "wal_rotations_total"
	MWalCompactionsTotal     Name = "wal_compactions_total"
	MWalTornTruncationsTotal Name = "wal_torn_truncations_total"
	MWalReplayRecordsTotal   Name = "wal_replay_records_total"
	MWalSizeBytes            Name = "wal_size_bytes"

	// prof — stage-level pipeline profiler (internal/prof). Each
	// receiver-chain stage records wall time, samples/sec throughput
	// and a heap-allocation delta.
	MProfStageRecordSeconds          Name = "prof_stage_record_seconds"
	MProfStageRecordSamplesPerSec    Name = "prof_stage_record_samples_per_second"
	MProfStageRecordAllocBytes       Name = "prof_stage_record_alloc_bytes"
	MProfStageDownconvertSeconds     Name = "prof_stage_downconvert_seconds"
	MProfStageDownconvertSamplesPSec Name = "prof_stage_downconvert_samples_per_second"
	MProfStageDownconvertAllocBytes  Name = "prof_stage_downconvert_alloc_bytes"
	MProfStageFilterSeconds          Name = "prof_stage_filter_seconds"
	MProfStageFilterSamplesPerSec    Name = "prof_stage_filter_samples_per_second"
	MProfStageFilterAllocBytes       Name = "prof_stage_filter_alloc_bytes"
	MProfStageSyncSeconds            Name = "prof_stage_sync_seconds"
	MProfStageSyncSamplesPerSec      Name = "prof_stage_sync_samples_per_second"
	MProfStageSyncAllocBytes         Name = "prof_stage_sync_alloc_bytes"
	MProfStageDecodeSeconds          Name = "prof_stage_decode_seconds"
	MProfStageDecodeSamplesPerSec    Name = "prof_stage_decode_samples_per_second"
	MProfStageDecodeAllocBytes       Name = "prof_stage_decode_alloc_bytes"
	MProfRuntimePollsTotal           Name = "prof_runtime_polls_total"
	MRuntimeHeapBytes                Name = "runtime_heap_bytes"
	MRuntimeHeapObjects              Name = "runtime_heap_objects"
	MRuntimeGoroutines               Name = "runtime_goroutines"
	MRuntimeGCCyclesTotal            Name = "runtime_gc_cycles_total"
	MRuntimeAllocBytesTotal          Name = "runtime_alloc_bytes_total"
	MRuntimeGCPauseP50Seconds        Name = "runtime_gc_pause_p50_seconds"
	MRuntimeGCPauseMaxSeconds        Name = "runtime_gc_pause_max_seconds"
	MRuntimeSchedLatencyP50Seconds   Name = "runtime_sched_latency_p50_seconds"
	MRuntimeSchedLatencyP99Seconds   Name = "runtime_sched_latency_p99_seconds"

	// stream — the block-based receiver (internal/stream) and the
	// pabstream ingestion hub (internal/stream/streamd).
	MStreamStreamsOpenedTotal   Name = "stream_streams_opened_total"
	MStreamStreamsClosedTotal   Name = "stream_streams_closed_total"
	MStreamStreamsActive        Name = "stream_streams_active"
	MStreamStreamsRejectedTotal Name = "stream_streams_rejected_total"
	MStreamStreamsReapedTotal   Name = "stream_streams_reaped_total"
	MStreamShedTotal            Name = "stream_shed_total"
	MStreamBlocksTotal          Name = "stream_blocks_total"
	MStreamSamplesTotal         Name = "stream_samples_total"
	MStreamBytesTotal           Name = "stream_bytes_total"
	MStreamFramesTotal          Name = "stream_frames_total"
	MStreamDecodeAttemptsTotal  Name = "stream_decode_attempts_total"
	MStreamDecodeMissesTotal    Name = "stream_decode_misses_total"
	MStreamResyncsTotal         Name = "stream_resyncs_total"
	MStreamFlushesTotal         Name = "stream_flushes_total"
	MStreamScanHitsTotal        Name = "stream_scan_hits_total"
	MStreamWindowSamples        Name = "stream_window_samples"
	MStreamDecodeLatencySeconds Name = "stream_decode_latency_seconds"

	// fault — per-class injection counters (fault.Engine.note).
	MFaultImpulseInjected    Name = "fault_impulse_injected_total"
	MFaultNoiseFloorInjected Name = "fault_noise_floor_injected_total"
	MFaultFadeInjected       Name = "fault_fade_injected_total"
	MFaultBrownoutInjected   Name = "fault_brownout_injected_total"
	MFaultClockDriftInjected Name = "fault_clock_drift_injected_total"
	MFaultClippingInjected   Name = "fault_clipping_injected_total"
	MFaultTruncationInjected Name = "fault_truncation_injected_total"
	MFaultNodeDeathInjected  Name = "fault_node_death_injected_total"
)
