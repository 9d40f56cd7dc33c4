"""Bench E12 — the Section 6 strawman: a replayable "I was reset" notice.

Paper shape: the notice protocol recovers from the genuine reset but is
broken wholesale by replaying the notice + history; SAVE/FETCH, having no
trusted-on-receipt control message, rejects the same barrage entirely.
"""

from repro.experiments import e12_reset_notice


def bench_reset_notice_attack(run_experiment):
    result = run_experiment(
        e12_reset_notice.sweep(pre_reset_messages=500, post_reset_messages=200)
    )
    strawman, savefetch = result.rows
    assert strawman["genuine_recovery_ok"]
    assert strawman["broken_by_replay"]
    assert strawman["replays_accepted"] >= 500
    assert not savefetch["broken_by_replay"]
    assert savefetch["replays_accepted"] == 0
