"""Schedules are a pure function of the seed, and mixes are exact."""

from collections import Counter

from bench import config, schedule


def test_same_seed_gives_byte_identical_schedule():
    for workload in ("import_point", "import_scan", "export_churn", "fig6_journey"):
        first = schedule.closed_loop(workload, 7, 0, 2, 0.2, 2000)
        again = schedule.closed_loop(workload, 7, 0, 2, 0.2, 2000)
        assert schedule.fingerprint(first) == schedule.fingerprint(again)
        other = schedule.closed_loop(workload, 8, 0, 2, 0.2, 2000)
        assert schedule.fingerprint(first) != schedule.fingerprint(other)
    assert schedule.fingerprint(schedule.open_loop(7, 0, 2.0, 2000)) == schedule.fingerprint(
        schedule.open_loop(7, 0, 2.0, 2000)
    )


def test_clients_get_different_schedules():
    assert schedule.fingerprint(
        schedule.closed_loop("import_point", 7, 0, 2, 0.2, 2000)
    ) != schedule.fingerprint(schedule.closed_loop("import_point", 7, 1, 2, 0.2, 2000))


def test_mix_shares_are_exact_per_block():
    ops = schedule.closed_loop("import_point", 3, 0, 2, 0.4, 2000)[:200]
    assert Counter(op[1] for op in ops) == {"leaf_range": 100, "leaf_city": 50, "fanout": 50}
    ops = schedule.closed_loop("import_scan", 3, 0, 2, 0.5, 2000)[:100]
    assert Counter(op[1] for op in ops) == {"scan": 70, "unranked": 30}
    ops = schedule.closed_loop("export_churn", 3, 0, 2, 0.2, 2000)[:100]
    kinds = Counter(op[1] if op[0] == "import" else op[0] for op in ops)
    assert kinds == {
        "export": 30, "modify": 20, "renew": 10, "withdraw": 10, "point": 20, "bulk": 10,
    }


def test_churn_names_only_live_offers_of_the_clients_own_leaves():
    population = 2000
    for client in range(2):
        own = set(config.LEAVES[client::2])
        live = {
            f"{config.PREFIX}:{leaf}:{n + 1}"
            for leaf in own
            for n in range(config.preloaded_per_leaf(population, leaf))
        }
        minted = {leaf: config.preloaded_per_leaf(population, leaf) for leaf in own}
        for op in schedule.closed_loop("export_churn", 5, client, 2, 1.0, population):
            if op[0] == "export":
                minted[op[1]] += 1
                assert op[3] == f"{config.PREFIX}:{op[1]}:{minted[op[1]]}"
                assert op[1] in own
                live.add(op[3])
            elif op[0] == "withdraw":
                live.remove(op[1])  # KeyError = withdrew something not live
            elif op[0] in ("modify", "renew"):
                assert op[1] in live
            else:
                assert op[2]["service_type"] in own


def test_open_loop_dues_ascend_at_the_stated_rate():
    pairs = schedule.open_loop(11, 0, 40.0, 2000)
    dues = [due for due, _ in pairs]
    assert dues == sorted(dues) and 0.0 < dues[0] and dues[-1] < 40.0
    assert abs(len(dues) / 40.0 - config.OPEN_RATE_PER_CLIENT) < 0.1 * config.OPEN_RATE_PER_CLIENT


def test_preload_is_even_over_leaves_and_tie_free_across_them():
    offers = list(config.preload(1600))
    assert Counter(leaf for leaf, _, _ in offers) == {leaf: 200 for leaf in config.LEAVES}
    charges = {}
    for leaf, _, properties in offers:
        charges.setdefault(properties["ChargePerDay"], set()).add(leaf)
    assert all(len(leaves) == 1 for leaves in charges.values())
    assert {properties["City"] for _, _, properties in offers} == {f"C{k}" for k in range(10)}


def test_expected_count_follows_the_population():
    # 5 000 offers per leaf: 2 of 97 charges are below 12 -> 104 matches, capped at 10
    assert schedule.expected_count(40_000, "Rental3", 2, None, 10) == 10
    assert schedule.expected_count(40_000, config.SUPERTYPE, 2, None, 10) == 10
    # 250 per leaf (smoke): positions 0,1,97,98,194,195 match -> 6 on a leaf, 48 on Rental
    assert schedule.expected_count(2_000, "Rental3", 2, None, 10) == 6
    assert schedule.expected_count(2_000, config.SUPERTYPE, 2, None, 100) == 48
    # with a city pinned only every tenth position can match
    assert schedule.expected_count(2_000, "Rental3", 20, 7, 100) == sum(
        1 for position in range(250) if position % 97 < 20 and position % 10 == 7
    )


def test_workloads_match_the_catalogue():
    from bench import layers, runner

    catalogue = runner.catalogue()
    assert [entry["name"] for entry in catalogue["workloads"]] == list(config.WORKLOADS)
    per_layer = {metric["name"] for metric in catalogue["per_layer"]}
    for layer in layers.LAYERS:
        assert {f"{layer}.self_us_per_op", f"{layer}.calls_per_op"} <= per_layer
