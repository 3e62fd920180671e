PYTHONPATH := src
export PYTHONPATH

.PHONY: check test chaos trace recover

# The fast gate for every push: tier-1 minus the slow full-campaign
# tests (the exact Table I fidelity pins, the compiled-replay and
# parallel-speedup floors and the work-count pins included), plus the
# slow parallel-campaign tests: full-fault-mix determinism and, on 4+
# cores, the 2x multi-core scaling floor.
check:
	python -m pytest -q -m "not slow"
	python -m pytest -q -m slow tests/evaluation/test_parallel_campaign.py

# Seeded API-plane chaos regression (severe profile, zero crashed runs).
chaos:
	python -m pytest -q -m "chaos and not slow"

# Closed-loop recovery smoke: seeded recover-enabled campaign regressions
# (terminal classes per fault type, serial == parallel, chaos never crashes).
recover:
	python -m pytest -q -m "recovery and not slow"

# Observability smoke: traced seeded 8-run campaign, JSON export +
# span tree.  Fails if any pipeline stage stops producing spans.
trace:
	python -m repro trace-export --json trace.json --max-spans 40

# The complete tier-1 suite (what the roadmap's verify command runs).
test:
	python -m pytest -x -q
