"""Message construction, responses and op-id sequencing."""

from repro.api import perf
from repro.api.backends import execute_experiment
from repro.api.experiment import Experiment
from repro.host.core import Core
from repro.sim import messages
from repro.sim.messages import Message, MessageType


def setup_function(_fn):
    messages.reset_ids()


def test_make_response_copies_fields_and_links_request():
    req = Message(MessageType.LOAD, addr=0x1000, scope=2, core=1,
                  reply_to="lsu", exclusive=True, version=5)
    resp = req.make_response(MessageType.LOAD_RESP, version=7)
    assert resp is not req
    assert resp.req is req
    assert resp.mtype is MessageType.LOAD_RESP
    assert (resp.addr, resp.scope, resp.core, resp.reply_to) == \
        (0x1000, 2, 1, "lsu")
    assert resp.version == 7
    assert not (resp.exclusive or resp.uncacheable or resp.direct)
    assert resp.op_id == req.op_id + 1  # fresh id from the same sequence
    assert req.req is None


def test_reset_ids_restarts_op_id_sequence():
    first = Message(MessageType.LOAD).op_id
    Message(MessageType.LOAD)
    messages.reset_ids()
    assert Message(MessageType.LOAD).op_id == first


def test_delivered_responses_keep_their_fields_after_the_run(monkeypatch):
    """Responses are plain objects: nothing reuses one after delivery,
    so a response held past ``receive_response`` still describes the
    reply it carried when it arrived."""
    delivered = []
    deliver = Core.receive_response

    def recording(self, resp):
        delivered.append(
            (resp, (resp.mtype, resp.addr, resp.op_id, resp.version)))
        deliver(self, resp)

    monkeypatch.setattr(Core, "receive_response", recording)
    execute_experiment(Experiment.from_dict(perf.PERF_CONFIGS["litmus"]))
    assert delivered
    changed = [fields for resp, fields in delivered
               if (resp.mtype, resp.addr, resp.op_id, resp.version)
               != fields]
    assert not changed, f"{len(changed)} of {len(delivered)} responses " \
                        f"changed after delivery"
