"""Model delivery (paper Fig. 1b): gateway payloads and client-side rebuilds."""

import numpy as np
import pytest

from repro.core import deserialize_task_model, serialize_task_model
from repro.distill import batched_forward
from repro.serving import ServingGateway


@pytest.fixture()
def gateway(named_pool):
    pool, _, _ = named_pool
    gw = ServingGateway(pool)
    yield gw
    gw.close()


class TestRequestValidation:
    def test_empty_query_rejected(self, gateway):
        with pytest.raises(ValueError):
            gateway.serve(())

    def test_unknown_transport_rejected(self, gateway):
        with pytest.raises(ValueError):
            gateway.serve(("pets",), transport="float16")


class TestServer:
    def test_available_tasks(self, gateway):
        assert set(gateway.available_tasks()) == {"pets", "birds", "fish"}

    def test_handle_returns_payload(self, gateway):
        response = gateway.serve(("pets", "fish"))
        assert response.payload_bytes == len(response.payload) > 0
        assert response.service_seconds < 2.0

    def test_unknown_task_propagates(self, gateway):
        with pytest.raises(KeyError):
            gateway.serve(("dragons",))


class TestRoundtrip:
    def test_client_model_matches_server_model(self, gateway, named_pool):
        """The shipped model must compute exactly the server-side logits.

        Payloads are laid out in canonical (sorted) task order, so the
        reference consolidation uses the canonical order too; predictions
        are global class ids and therefore identical for any request order.
        """
        from repro.serving import canonical_tasks

        pool, data, _ = named_pool
        model = deserialize_task_model(gateway.serve(["pets", "birds"]).payload)
        canonical_net, _ = pool.consolidate(list(canonical_tasks(["pets", "birds"])))
        request_net, request_comp = pool.consolidate(["pets", "birds"])
        x = data.test.images[:10]
        assert np.allclose(
            model.logits(x), batched_forward(canonical_net, x), atol=1e-5
        )
        from tests.conftest import assert_fused_ids_match

        # predict() runs the fused fast path: tie-tolerant vs the loop argmax
        assert_fused_ids_match(
            model.predict(x), batched_forward(request_net, x), request_comp.classes
        )

    def test_class_names_travel(self, gateway):
        model = deserialize_task_model(gateway.serve(["fish"]).payload)
        assert model.class_names == ("eel", "cod")
        assert tuple(model.classes) == (4, 5)

    def test_uint8_transport_smaller_and_close(self, gateway, named_pool):
        _, data, _ = named_pool
        full = gateway.serve(("pets", "birds"))
        packed = gateway.serve(("pets", "birds"), transport="uint8")
        assert packed.payload_bytes < full.payload_bytes
        model_full = deserialize_task_model(full.payload)
        model_packed = deserialize_task_model(packed.payload)
        x = data.test.images[:40]
        agreement = (model_full.predict(x) == model_packed.predict(x)).mean()
        assert agreement > 0.9  # quantization costs little accuracy

    def test_payload_is_self_contained(self, gateway, named_pool):
        """Deserialization must not touch the pool — only the bytes."""
        _, data, _ = named_pool
        payload = gateway.serve(("pets",)).payload
        model = deserialize_task_model(bytes(payload))
        preds = model.predict(data.test.images[:5])
        assert set(np.unique(preds)).issubset({0, 1})

    def test_serialize_helper_direct(self, named_pool):
        pool, _, _ = named_pool
        network, composite = pool.consolidate(["birds"])
        payload = serialize_task_model(network, composite, pool.config)
        model = deserialize_task_model(payload)
        assert model.task.names == ("birds",)
