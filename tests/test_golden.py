"""Golden output digests: the sha256 of every file a small run writes.

Repeat-run determinism alone cannot catch a change that alters output the same
way on every run. These digests pin the output tree of `run_domain` +
`emit_report` for each domain on the small configs at seed 42. Update them only
together with a CHANGES.md entry that says why the output changed.
"""

import hashlib
import os

import pytest

from test_pipeline import small_config
from threatbench.pipeline import emit_report, run_domain

GOLDEN = {
    "intrusion": {
        "data/intrusion.csv": "1dd6c39470b1f274e0cc354db10a5ed2c1617026317ad9b764255e5d57919fd6",
        "histograms/anomaly_label.csv": "060fa673829e0044ecb1f64f86b9c01e07def1b65a09a3258d1f0eb3eca2f34c",
        "histograms/bytes.csv": "df07129a20f71e75296a99e4c32ffa6427764e6489e9775364205fb4992d37a4",
        "histograms/dst_port.csv": "21dfa1e333e5f8ab5910e8502d9eceb0d94a3fd67ab8a8b7d4d32d80ecc4d8ce",
        "histograms/duration.csv": "dce86a78e1bfbb20b666b8631c19d9e319cbd0ee843f277cc998ce48ebee5fa9",
        "histograms/is_internal.csv": "1f663ebeb5b6e2d63b7805529a4e4e234fa0d20abbff74507dd265e7cc55b802",
        "histograms/packet_count.csv": "4181ec7b67c2f990accaccb38e486302998b17771dfd16d07dd5675b7ef3cb30",
        "histograms/protocol.csv": "c143e91c7eb1219116846e400101a9541d1ff34a39927af1f764e2f7ce90d1d1",
        "histograms/src_port.csv": "72d6a7accb596ec341f327eca92d3737507071eae0451fad9295dfa3e3564fed",
        "models/dense_autoencoder.json": "4c28b77f9436047643eb820ed1645f37e0415af57584b02a864c7485613e2be0",
        "models/isolation_forest.json": "c666237cefb87762fe9b36b460a5acbe8e9bfe50a44a0ed495e418bf7d3d966b",
        "report.json": "ae21fee1857114cf0011140efee0af5ded8e75b6ff934907fe04b3fabb9551ce",
        "report.txt": "d1cda3065e89076cb213eac9dd57201430a19eb6c8af870f4b09153977c10bf9",
    },
    "malware": {
        "data/malware.csv": "e10e80cdff11a8f48ea01119f8b86e588320473807efd54e963cf948850162e1",
        "histograms/entropy.csv": "106226739f2ca745202f6e3c246e5c8d62552804ac01935db11e70d1d1129429",
        "histograms/file_size.csv": "0336c75bc4ef3151d2c209ee2c1b4e3053d59828cb04fdda8199f235f836f01f",
        "histograms/file_type.csv": "9796ca087276fde9170f9d95c065375a6b18df81ae8bf269d9e30c238834334b",
        "histograms/has_digital_signature.csv": "e366916a9bd9d2067367ba444b4eaf3eab0b7a73bc033a1d666ee462625ef55b",
        "histograms/is_packed.csv": "8155f5da4a9b39c72086fcb41127ee2de42d992b1994850e78b743e1efef806c",
        "histograms/label.csv": "266765944fd6c02ea9cb81c54a6916a75822217f1ec6bf91263e8ad8a228ad8c",
        "histograms/num_imports.csv": "2d07f5a4ac998f1ab09035bf9ec12bf2cee7b00f22f47f3884898dd45dcf9e18",
        "histograms/num_strings.csv": "959db9bc5b4f67c9b15f4eabb40e3e0126954763b226beeb444b56764058d311",
        "histograms/opcode_JMP_ratio.csv": "ddb4f852fc6be26870208528405ca99684c68d1b443ae99bdca04aaf7ef71a59",
        "histograms/opcode_NOP_ratio.csv": "fb3f5d405beaeb0cbbd76afbb5b50f0e6be6be09570cc734d741d8a3831b3764",
        "histograms/packer_entropy_ratio.csv": "1539792770e3ad49b9d07f23dc8dad6a76c488c88fe9d3679ba19d863a42f346",
        "histograms/section_count.csv": "eb77b37a3af5fff06496fd4e006f90f120d0f607f204985d259c491f6dcb8fab",
        "models/boosting_calibrator.json": "c2635808f497fa25ac18a98eab7f5e9e4bfa711b4571ee37541a010d28a0b37b",
        "models/gradient_boosting.json": "080d9e444625131a5cbf7ad1aec8585c26c83a784c5f247fcf70da0b3b47210b",
        "models/random_forest.json": "8d69802800f210802c603433ff0ed886d5b96a8e27908974730f4ba69f9af2b0",
        "report.json": "e8f1dae24ce9071da7362ee8ce9448661674e41ce75196579c554b3c310a3a52",
        "report.txt": "2f3dd01cf4d9f306896f5db412253ad724f3ea0ebc8f0cd18639d5af19ffce27",
    },
    "phishing": {
        "data/phishing.csv": "5118f7b42ca741ce33ab8b538c438c1909bbabdb2f658fedbb39a8eb554af9b6",
        "histograms/attachment_type.csv": "8a8abd901bf2964a59ca90b24469e006ae6fdfe6701f6e36493dc7c738d35391",
        "histograms/has_html.csv": "d7116846ebfe793d07614897ec635c9d14a180da7080ecc1e3902533547e35dd",
        "histograms/has_login_form.csv": "8155f5da4a9b39c72086fcb41127ee2de42d992b1994850e78b743e1efef806c",
        "histograms/has_spf_fail.csv": "6cbae2ef9e5bb42359564b582beca6f494c604d03f136e3339ad628ba23ca151",
        "histograms/hour_sent.csv": "3e6a3dd1250e2dc08edcd8c7eb3aef4b1290f0df903e3269ae8cd18888b11219",
        "histograms/is_from_internal.csv": "d83d3664e3a478d57978bb7b2da68d872783497c1b5a3e02a7e7a7cd3fd69c2c",
        "histograms/label.csv": "bcd6d5ef6a214589cc70b156b5519a0f8866d1ec44a3abdf82c8e113b703b626",
        "histograms/num_domains.csv": "476f1c4166c71fbfd205362d718dbb4bd6eeb4cc4328037c2e7e95efecd0137f",
        "histograms/num_links.csv": "3bac2fbbef171410bd86af0ea72723e514919bd2d4321df731fa14f93b6fe2d3",
        "histograms/num_suspicious_words.csv": "8a3ae73891877f554404a867239b5df0784a0531475c0d5849279c0e7e772e8c",
        "histograms/sender_reputation_score.csv": "788beb3d8855f4944eb093538ff5a70e988030bce95221e79c3bb1712fb1ffa5",
        "models/boosting_calibrator.json": "e8f0f9e76b691cc4cf5b0954ebb2eb8c266f09c16da6e91a64f01bc6cb864a7f",
        "models/gradient_boosting.json": "f8010a9856482b42efaf677c332836e9642e3be8c76bfd7083eed9432cb986fa",
        "models/logistic_regression.json": "ce7148f907b9e731d32ff0c74f8c63d07a8599d47440e2a1b253fd06115d10ac",
        "models/random_forest.json": "9e5435b645b6ed4cd27cddcaa05f40e365fc61c69b55de6302b079fe6c234034",
        "report.json": "b58e18ac24a047811b9a617c176b2bbd05597f2c960e6c9bcde6c66a7c686cec",
        "report.txt": "e952a39f75a685d25fe2c487525f132bb4ffdf25935a692314e7009fd6808900",
    },
    "ueba": {
        "data/events.jsonl": "f7aa26280d2e4af958159c71c589a91e71020d810a4a93e3e12904a6db26ff13",
        "data/ueba.csv": "3619fe074c68703ffe6841feaf04444a893ef7310db61a68b2240aa988ae60a3",
        "histograms/accessed_sensitive_file.csv": "1a29530a56c5162a9cb2f3c00fb175ec89d9efed5a26b0fa3f8d5d5d3721985f",
        "histograms/activity_type.csv": "c6a1fee6a6f6a9b213f33c46b2b8b11c26b257e5f2486a9490cfb5948a9e7d6b",
        "histograms/anomaly_label.csv": "668c7385ecc196a5837aedba6de3169713d5c91dcec62fe49852fcb6dd463c34",
        "histograms/command_count.csv": "60783b5eb538298f29b55945fa8879b8af1fba2c91f3f280a808830050cc00b5",
        "histograms/day.csv": "fb83ab340beb76f19438e48d9bca4bf1ac9d044538454950b81067df32de0da0",
        "histograms/failed_login_attempts.csv": "23ab06cda299a8f5ae598bbdec4e46771468bf1c39b1c9e7dfef4f9a3e7d2f02",
        "histograms/hour.csv": "407b10a79b3fa47d58c380ba21e49643e6b443d8d81f1566dee6507242b40443",
        "histograms/is_admin_action.csv": "58660d78f05c290d9282a9333461348cbbfe038519e066ff326ef24e7f5b9506",
        "histograms/user_id.csv": "af634b582b2f9dfbb22d5d95dc3b204304aec21ba7cf28dba643921addc56b73",
        "histograms/weekday.csv": "94fd9b437d0f4148a6e52eea39a44e647b7b5a2c27dc0b0a5b10c5c15b25f831",
        "models/lstm_autoencoder.json": "cd7ed5dc2c16312a531101ff345c17f19961d39bdd1d8d4e3e695d129d1dce33",
        "report.json": "f5ef98bd0902b48c8bcc1118a58c0f4fe500f684cf0ffff8d4f26a3e61d79bdd",
        "report.txt": "ad46a0b3ebb2f56767678605c1ff5390fd4c548d3c9b9d4e679d17f9ccbc5f26",
    },
}


def _tree_digests(root):
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root).replace(os.sep, "/")] = hashlib.sha256(fh.read()).hexdigest()
    return out


@pytest.mark.parametrize("domain", sorted(GOLDEN))
def test_output_tree_matches_golden_digests(domain, tmp_path):
    report = run_domain(small_config(domain), out_dir=str(tmp_path))
    emit_report(report, str(tmp_path))
    assert _tree_digests(tmp_path) == GOLDEN[domain]
