"""Concurrent clients against the serving gateway (pool → gateway → client).

The paper's service phase is train-free; this demo shows it holding up
under *concurrent* traffic: many client threads issue Zipf-skewed
composite-task queries against one :class:`repro.serving.ServingGateway`,
which canonicalizes them, coalesces concurrent duplicates into one
in-flight build, and serves repeats from byte-budgeted caches.  One client
deserializes its payload and runs on-device inference, closing the loop
of Figure 1b.

Run::

    PYTHONPATH=src python examples/concurrent_clients.py
"""

import random
import threading
from itertools import combinations

from repro.core import deserialize_task_model
from repro.serving import GatewayConfig, ServingGateway, build_demo_pool


def main() -> None:
    print("=== preprocessing: building a micro pool (train once, serve forever) ===")
    pool, data = build_demo_pool(num_tasks=5, seed=13)
    print(f"pool ready with experts: {', '.join(pool.expert_names())}\n")

    # 16 composite queries of 1-3 tasks; the k-th most popular is asked
    # with weight 1 / k^1.2 (Zipf), so a few hot composites dominate
    names = pool.expert_names()
    queries = [list(q) for size in (1, 2, 3) for q in combinations(names, size)]
    random.Random(1).shuffle(queries)
    queries = queries[:16]
    weights = [1.0 / rank**1.2 for rank in range(1, len(queries) + 1)]

    print("=== 8 concurrent clients, Zipf-skewed queries, caches on ===")
    with ServingGateway(pool, GatewayConfig(max_workers=8)) as gateway:

        def zipf_client(seed):
            for tasks in random.Random(seed).choices(queries, weights, k=40):
                gateway.serve(tasks)

        clients = [threading.Thread(target=zipf_client, args=(i,)) for i in range(8)]
        for t in clients:
            t.start()
        for t in clients:
            t.join()
        print(gateway.render_stats())
        print()

        print("=== coalescing: 6 clients ask for the same model at once ===")
        responses = [None] * 6
        barrier = threading.Barrier(6)

        def client(i):
            barrier.wait()
            responses[i] = gateway.serve(["task0", "task1", "task2"], "uint8")

        threads = [threading.Thread(target=client, args=(i,)) for i in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        fresh = sum(1 for r in responses if not r.coalesced and not r.payload_cache_hit)
        coalesced = sum(1 for r in responses if r.coalesced)
        hits = sum(1 for r in responses if r.payload_cache_hit)
        print(
            f"6 identical concurrent queries -> {fresh} build(s), "
            f"{coalesced} coalesced, {hits} cache hit(s)\n"
        )

        print("=== client side: deserialize one payload and predict locally ===")
        response = gateway.serve(["task3", "task0"])
        model = deserialize_task_model(response.payload)
        sample = data.test.images[:6]
        print(f"payload: {response.payload_bytes:,} bytes, layout {response.tasks}")
        print("predicted classes:", model.predict_names(sample))


if __name__ == "__main__":
    main()
